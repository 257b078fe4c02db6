"""
Why alignment matters: joint smoothing vs post-hoc rotation vs nothing
======================================================================

Per-slice factorizations are rotation-invariant, so vectors from different
slices are not directly comparable. This script quantifies that on a
planted corpus via cross-time self-retrieval: given a stable word's vector
at slice t, find the same word among slice t' vectors. Three contenders:

- joint:     one factorization with temporal smoothing (shared space)
- aligned:   independent factorizations, chained orthogonal Procrustes
- unaligned: independent factorizations, no alignment at all
"""

import numpy as np

from tvembed.baselines import align_sequence, train_per_slice
from tvembed.corpus import build_vocabulary, count_cooccurrences
from tvembed.evaluation import mp_at_k, mrr, run_alignment_test
from tvembed.ppmi import build_ppmi, PpmiSequence
from tvembed.solver import SolverConfig, final_embedding, train
from tvembed.synthetic import identity_testset, planted_shift_corpus

corpus = planted_shift_corpus(n_slices=8, seed=1)
vocab = build_vocabulary(corpus, min_count=1)
labels = corpus.slice_labels

stats = [count_cooccurrences(docs, vocab, window=5)
         for docs in corpus.slices]
Y = PpmiSequence(
    [build_ppmi(s, slice_label=lab) for s, lab in zip(stats, labels)],
    vocab_size=len(vocab),
)
config = SolverConfig(dim=20, ridge=1.0, smoothing=50.0, coupling=50.0,
                      epochs=20, seed=1)

# Joint model: smoothing keeps all slices in one latent space.
joint = final_embedding(train(Y, config))

# Baselines: train each slice independently, then align (or don't).
per_slice = train_per_slice(Y, config)
aligned = align_sequence(per_slice)

# 200 queries of the form "word w at slice t -> find w at slice t'".
testset = identity_testset(vocab, labels, seed=1)

print(f"{'variant':10s} {'MP@1':>6s} {'MP@5':>6s} {'MRR':>6s}")
for name, mats in [
    ("joint", [joint[t] for t in range(len(labels))]),
    ("aligned", aligned),
    ("unaligned", per_slice),
]:
    ranks = run_alignment_test(testset, dict(zip(labels, mats)))
    print(f"{name:10s} {mp_at_k(ranks, 1):6.3f} "
          f"{mp_at_k(ranks, 5):6.3f} {mrr(ranks):6.3f}")

print()
print("unaligned retrieval is chance-level: each slice sits in its own")
print("arbitrary rotation of the latent space.")
