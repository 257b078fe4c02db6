"""
Training temporally smoothed embeddings and watching a word move
================================================================

Builds a synthetic corpus in which one probe word switches from one word
community to another half-way through time, trains the joint factorization
with temporal smoothing, and shows that the probe's nearest neighbors (and
only the probe's) change across slices.
"""

import numpy as np

from tvembed.corpus import build_vocabulary, count_cooccurrences
from tvembed.evaluation import nearest_neighbors, norm_series
from tvembed.ppmi import build_ppmi, PpmiSequence
from tvembed.solver import SolverConfig, final_embedding, train
from tvembed.synthetic import planted_shift_corpus

# The generator plants two disjoint word communities ("alpha*" and
# "beta*"); "probeword" lives with the alphas for t < 4 and with the
# betas afterwards.
corpus = planted_shift_corpus(n_slices=8, seed=0)
vocab = build_vocabulary(corpus, min_count=1)
labels = corpus.slice_labels

stats = [count_cooccurrences(docs, vocab, window=5)
         for docs in corpus.slices]
Y = PpmiSequence(
    [build_ppmi(s, slice_label=lab) for s, lab in zip(stats, labels)],
    vocab_size=len(vocab),
)

# Temporal smoothing ties adjacent slices together so all slices share one
# latent space; no post-hoc rotation is needed.
config = SolverConfig(dim=20, ridge=1.0, smoothing=50.0, coupling=50.0,
                      epochs=20, seed=0)
seq = train(Y, config)
emb = final_embedding(seq)

probe = vocab.index["probeword"]
print("nearest neighbors of the probe word per slice:")
for t, lab in enumerate(labels):
    hits = nearest_neighbors(emb[t][probe], emb[t], K=3, drop=probe)
    names = ", ".join(vocab.words[i] for i, _ in hits)
    print(f"  t={lab}: {names}")

# A stable word stays put: its neighbors are its ring arc in every slice.
stable = vocab.index["alpha050"]
print("nearest neighbors of a stable word per slice:")
for t, lab in enumerate(labels):
    hits = nearest_neighbors(emb[t][stable], emb[t], K=3, drop=stable)
    names = ", ".join(vocab.words[i] for i, _ in hits)
    print(f"  t={lab}: {names}")

# Vector norms track how much a word is used in each slice.
norms = norm_series(probe, dict(zip(labels, emb)))
print("probe norm per slice:",
      " ".join(f"{lab}:{n:.2f}" for lab, n in norms))
