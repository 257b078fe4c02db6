"""Synthetic corpora with planted structure, for demos and end-to-end checks."""

import numpy as np

from tvembed.corpus import TimeSlicedCorpus
from tvembed.evaluation import AlignmentTestset


def planted_shift_corpus(
    n_slices=8,
    community_size=150,
    docs_per_slice=400,
    doc_len=15,
    halo=3,
    seed=0,
):
    """Two word communities with one probe word, "probeword", that switches
    sides mid-way.

    Each community is a ring of `community_size` words. A document picks a
    community and a center on its ring, then draws tokens from positions
    within `halo` of the center, so every word has a distinctive, stable
    neighborhood (its arc of the ring) and the two communities never
    co-occur. The probe word is injected into documents centered near
    position 0 of the first community for the first half of the slices and
    of the second community afterwards, so its neighborhood (and only its
    neighborhood) shifts at t = n_slices // 2.
    """
    rng = np.random.default_rng(seed)
    communities = (
        [f"alpha{i:03d}" for i in range(community_size)],
        [f"beta{i:03d}" for i in range(community_size)],
    )
    n = community_size
    slices = []
    for t in range(n_slices):
        probe_side = 0 if t < n_slices // 2 else 1
        docs = []
        for _ in range(docs_per_slice):
            side = int(rng.integers(2))
            words = communities[side]
            center = int(rng.integers(n))
            deltas = rng.integers(-halo, halo + 1, size=doc_len)
            doc = [words[(center + d) % n] for d in deltas]
            if side == probe_side and min(center, n - center) <= halo:
                doc[int(rng.integers(doc_len))] = "probeword"
            docs.append(doc)
        slices.append(docs)
    return TimeSlicedCorpus(slices=slices, slice_labels=list(range(n_slices)))


def identity_testset(vocab, labels, min_gap=2, max_records=200, seed=0):
    """Cross-time self-equivalence records for words that never shift.

    Every record asks: given word w at slice t, find w among slice t',
    |t - t'| >= min_gap. Aligned embeddings answer these; unaligned
    per-slice factorizations cannot (each slice has its own rotation).
    """
    rng = np.random.default_rng(seed)
    words = [w for w in vocab.words if not w.startswith("probe")]
    pairs = [
        (a, b)
        for a in labels
        for b in labels
        if abs(a - b) >= min_gap
    ]
    records = []
    for _ in range(max_records):
        w = words[int(rng.integers(len(words)))]
        a, b = pairs[int(rng.integers(len(pairs)))]
        records.append((vocab.index[w], a, b, vocab.index[w]))
    return AlignmentTestset(records=records)
