import numpy as np
import scipy.sparse as sp

from tvembed.ppmi import PpmiMatrix, PpmiSequence


def random_ppmi_sequence(V, T, density=0.3, seed=0):
    """Random sparse symmetric nonnegative matrices shaped like PPMI data."""
    rng = np.random.default_rng(seed)
    mats = []
    for t in range(T):
        dense = rng.random((V, V)) * (rng.random((V, V)) < density)
        dense = np.triu(dense)
        dense = dense + np.triu(dense, k=1).T
        mats.append(
            PpmiMatrix(values=sp.csr_matrix(dense), slice_label=t)
        )
    return PpmiSequence(matrices=mats, vocab_size=V)


def dense_objective_oracle(seq, Y):
    """Brute-force dense evaluation of the full training objective."""
    cfg = seq.config
    total = 0.0
    T = seq.num_slices
    for t in range(T):
        D = Y.matrices[t].values.toarray()
        total += 0.5 * np.sum((D - seq.U[t] @ seq.W[t].T) ** 2)
        total += 0.5 * cfg.coupling * np.sum((seq.U[t] - seq.W[t]) ** 2)
        total += 0.5 * cfg.ridge * (np.sum(seq.U[t] ** 2) + np.sum(seq.W[t] ** 2))
        if t > 0:
            total += 0.5 * cfg.smoothing * np.sum((seq.U[t - 1] - seq.U[t]) ** 2)
            total += 0.5 * cfg.smoothing * np.sum((seq.W[t - 1] - seq.W[t]) ** 2)
    return total


def dense_ridge_system(factor, t, seq, Y, config):
    """Brute-force dense (A, B) of the exact ridge update of U(t) or W(t):
    the minimizer X of the objective over that factor solves X @ A = B."""
    T = seq.num_slices
    same = seq.U if factor == "U" else seq.W
    F = (seq.W if factor == "U" else seq.U)[t]
    neighbors = [s for s in (t - 1, t + 1) if 0 <= s < T]
    A = F.T @ F + (
        config.coupling + config.ridge + len(neighbors) * config.smoothing
    ) * np.eye(F.shape[1])
    B = Y.matrices[t].values.toarray() @ F + config.coupling * F
    for s in neighbors:
        B = B + config.smoothing * same[s]
    return A, B
