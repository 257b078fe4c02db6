"""Temporally aligned word embeddings from time-sliced corpora.

Builds per-slice PPMI matrices from co-occurrence counts and jointly
factorizes them with a temporal smoothing penalty, solved by block
coordinate descent. Includes alignment baselines (static pooling,
orthogonal Procrustes chaining, local linear maps) and evaluation
metrics (NMI, pairwise F-beta, MRR, MP@K).
"""

from tvembed.artifact import ArtifactError
from tvembed.corpus import (
    SliceStats,
    TimeSlicedCorpus,
    Vocabulary,
    build_vocabulary,
    count_cooccurrences,
    load_corpus,
    load_stopwords,
    subsample_counts,
    tokenize,
)
from tvembed.ppmi import PpmiMatrix, PpmiSequence, build_ppmi
from tvembed.solver import (
    EmbeddingSequence,
    SolverConfig,
    final_embedding,
    init_embeddings,
    objective,
    train,
    update_factor,
)
from tvembed.baselines import (
    align_sequence,
    factorize_single,
    local_linear_maps,
    procrustes_align,
    train_per_slice,
    train_static,
)
from tvembed.evaluation import (
    AlignmentTestset,
    f_beta,
    mp_at_k,
    mrr,
    nearest_neighbors,
    nmi,
    norm_series,
    run_alignment_test,
    spherical_kmeans,
)

__version__ = "0.1.0"
