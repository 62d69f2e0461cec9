"""Plain F_q routines that only the tests read: the library's engines no
longer need them, and the tests use them as independent references."""

import numpy as np

from kemod import linalg
from kemod.subspace import Subspace


def solve_fp(a, b, F):
    """One solution x of a @ x = b (column sense), or None.  For a 2-d b,
    (X, solvable): column j of X solves a @ x = b[:, j] where solvable[j],
    all from one echelon form of [a | b]; column j is solvable iff it
    vanishes below the rank of a, whatever the other columns of b are."""
    F = linalg.field(F)
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    cols = a.shape[1]
    R, pivots = linalg.rref_fp(np.hstack([a, b.reshape(-1, 1) if b.ndim == 1 else b]), F)
    rank = int(np.searchsorted(pivots, cols))
    X = np.zeros((cols, R.shape[1] - cols), dtype=np.int64)
    X[pivots[:rank]] = R[:rank, cols:]
    solvable = ~R[rank:, cols:].any(axis=0)
    if b.ndim == 2:
        return X, solvable
    return X[:, 0] if solvable[0] else None


def apply_generator(m, i: int, sub: Subspace) -> Subspace:
    """Image of a subspace under X_i."""
    if sub.dim == 0:
        return Subspace.zero(m.ctx, m.dim)
    return Subspace.span(m.ctx, m.dim, linalg.matmul_fp(sub.basis, m.mats[i].T, m.ctx))
