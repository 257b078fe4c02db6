"""Temporally aligned word embeddings from time-sliced corpora.

Builds per-slice PPMI matrices from co-occurrence counts and jointly
factorizes them with a temporal smoothing penalty, solved by block
coordinate descent. Includes alignment baselines (static pooling,
orthogonal Procrustes chaining, local linear maps) and evaluation
metrics (NMI, pairwise F-beta, MRR, MP@K).

The package holds the names of README's library quick start; every other
name is imported from its module (`tvembed.corpus`, `tvembed.evaluation`, ...).
"""

from tvembed.corpus import build_vocabulary, count_cooccurrences, load_corpus
from tvembed.ppmi import PpmiSequence, build_ppmi
from tvembed.solver import SolverConfig, final_embedding, train

__version__ = "0.1.0"
