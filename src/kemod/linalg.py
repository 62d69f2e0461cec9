"""Exact linear algebra over any F_q, plus a generic lane for the
rational-function scalars of the symbolic generic-point computations.

Matrices over F_q are int64 arrays of element codes (see ``gf.FieldCtx``);
every routine takes the field as a ``FieldCtx`` or, for a prime field, as
the plain prime p, and does its arithmetic through the field's array
methods.  Every elimination goes through ``rref_fp``, which picks its route
from the input's nonzero count: over a prime field a matrix with a few
nonzeros per row and column is reduced row by row as {column: residue}
maps, touching only the nonzeros; any other matrix is reduced by dense row
operations, vectorized per pivot.  Both routes give the same canonical
echelon form.  Matrix products go through float64 BLAS when the
intermediate values provably fit in the 53-bit mantissa, in pieces that
BLAS makes on the calling thread unless a product is very wide
(``gf._matmul_mod``), so no thread setting is needed.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InputError
from .gf import FieldCtx

# ---------------------------------------------------------------------------
# numpy lane: matrices of codes over F_q
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _prime_field(p: int) -> FieldCtx:
    return FieldCtx(p)


def field(F) -> FieldCtx:
    """The field given as a FieldCtx or as a prime."""
    return F if isinstance(F, FieldCtx) else _prime_field(F)


def matmul_fp(a: np.ndarray, b: np.ndarray, F) -> np.ndarray:
    """Exact a @ b over F_q."""
    return field(F).matmul(a, b)


def matpow_fp(a: np.ndarray, e: int, F) -> np.ndarray:
    """a^e over F_q by binary powering from the lowest set bit of e; no
    product by the identity and no squaring past the highest bit."""
    F = field(F)
    base, result = F.canon(a), None
    while True:
        if e & 1:
            result = base.copy() if result is None else F.matmul(result, base)
        e >>= 1
        if not e:
            return np.eye(a.shape[0], dtype=np.int64) if result is None else result
        base = F.matmul(base, base)


SPARSE_MIN_CELLS = 16
SPARSE_MAX_NNZ_PER_LINE = 2


def rref_fp(a, F) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_q.

    Returns:
        (R, pivots): R with unit pivots and zeros above/below them,
        pivots the list of pivot column indices.

    Over a prime field, a matrix of at least ``SPARSE_MIN_CELLS`` cells with
    at most ``SPARSE_MAX_NNZ_PER_LINE`` * (rows + cols) nonzeros takes the
    sparse route, which touches only the nonzeros; every other matrix is
    reduced by dense row operations, one vectorized pass per pivot.  Both
    give the same canonical (R, pivots).  The crossover, measured per call
    on the 5561 eliminations of one ``bundle`` and one ``suite`` benchmark
    round (seed 3) and on random n x n matrices over F_2 and F_5 with
    n = 8..700: with at most 2 (rows + cols) nonzeros the sparse route takes
    0.1-0.85 of the dense route's time from 16 cells on; below 16 cells the
    dense route wins; on random matrices with 4 (rows + cols) nonzeros the
    sparse route takes 1.3-2.6 times as long, because their rows fill in.
    """
    F = field(F)
    a = np.asarray(a, dtype=np.int64)
    rows, cols = a.shape
    if F.k == 1 and a.size >= SPARSE_MIN_CELLS:
        nz = np.flatnonzero(a != 0)
        if nz.size <= SPARSE_MAX_NNZ_PER_LINE * (rows + cols):
            return _rref_sparse(a, nz, F.p)
    R = F.canon(a)
    if R is a:
        R = R.copy()
    pivots: list[int] = []
    pr = 0
    for c in range(cols):
        if pr >= rows:
            break
        nz = np.nonzero(R[pr:, c])[0]
        if nz.size == 0:
            continue
        r0 = pr + nz[0]
        if r0 != pr:
            R[[pr, r0]] = R[[r0, pr]]
        lead = int(R[pr, c])
        if lead != 1:
            R[pr] = F.mul(R[pr], F.inv(lead))
        coef = R[:, c].copy()
        coef[pr] = 0
        mask = coef != 0
        if mask.any():
            R[mask] = F.sub_mul(R[mask], coef[mask][:, None], R[pr])
        pivots.append(c)
        pr += 1
    return R, pivots


def _rref_sparse(a: np.ndarray, nz: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """``rref_fp`` over F_p of a matrix given with its flat nonzero indices.

    Rows become {column: residue} maps.  Each row is reduced at its leading
    column by the echelon row with that pivot until its leading column is
    new, and joins the echelon rows there with a unit lead.  Back
    substitution, from the last pivot up, then clears the pivot columns of
    every row."""
    rows, cols = a.shape
    vals = a.reshape(-1)[nz] % p
    live = vals != 0
    nz, vals = nz[live], vals[live]
    bounds = np.searchsorted(nz, cols * np.arange(rows + 1)).tolist()
    cl, vl = (nz % cols).tolist(), vals.tolist()
    basis: dict[int, dict[int, int]] = {}
    for s, e in zip(bounds, bounds[1:]):
        row = dict(zip(cl[s:e], vl[s:e]))
        while row:
            lead = min(row)
            if lead not in basis:
                f = row[lead]
                if f != 1:
                    f = pow(f, -1, p)
                    row = {j: x * f % p for j, x in row.items()}
                basis[lead] = row
                break
            _eliminate(row, row[lead], basis[lead], p)
    pivots = sorted(basis)
    for lead in reversed(pivots):
        row = basis[lead]
        for j in [j for j in row if j > lead and j in basis]:
            _eliminate(row, row[j], basis[j], p)
    R = np.zeros((rows, cols), dtype=np.int64)
    R.reshape(-1)[[i * cols + j for i, lead in enumerate(pivots) for j in basis[lead]]] = [
        x for lead in pivots for x in basis[lead].values()
    ]
    return R, pivots


def _eliminate(row: dict, f: int, b: dict, p: int) -> None:
    """row -= f * b over F_p, in place, dropping the entries that vanish."""
    for j, x in b.items():
        y = (row.get(j, 0) - f * x) % p
        if y:
            row[j] = y
        else:
            del row[j]


def rank_fp(a, F) -> int:
    return len(rref_fp(a, F)[1])


def kernel_fp(a, F) -> np.ndarray:
    """Row basis of the right kernel {x : a @ x = 0} over F_q."""
    F = field(F)
    R, pivots = rref_fp(a, F)
    return kernel_of_rref(R, pivots, F)


def kernel_of_rref(R: np.ndarray, pivots: list[int], F: FieldCtx) -> np.ndarray:
    """The kernel basis of an RREF: one row per free column."""
    cols = R.shape[1]
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.nonzero(is_free)[0]
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = F.neg(R[: len(pivots)][:, free].T)
    return basis


def solve_fp(a, b, F):
    """One solution x of a @ x = b (column sense), or None.  For a 2-d b,
    one such answer per column of b, all from one echelon form of [a | b]:
    column j is solvable iff it vanishes below the rank of a, whatever the
    other columns of b are."""
    F = field(F)
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)  # rref_fp reduces them
    cols = a.shape[1]
    R, pivots = rref_fp(np.hstack([a, b.reshape(-1, 1) if b.ndim == 1 else b]), F)
    rank = sum(1 for c in pivots if c < cols)
    xs = []
    for col in R[:, cols:].T:
        x = np.zeros(cols, dtype=np.int64)
        x[pivots[:rank]] = col[:rank]
        xs.append(None if col[rank:].any() else x)
    return xs if b.ndim == 2 else xs[0]


def inv_fp(a, F) -> np.ndarray:
    F = field(F)
    a = F.canon(a)
    n = a.shape[0]
    R, pivots = rref_fp(np.hstack([a, np.eye(n, dtype=np.int64)]), F)
    if pivots[:n] != list(range(n)):
        raise InputError("matrix not invertible")
    return R[:, n:]


def row_space_fp(a, F) -> tuple[np.ndarray, list[int]]:
    """Echelonized row space with zero rows dropped."""
    R, pivots = rref_fp(a, F)
    return R[: len(pivots)].copy(), pivots


def reduce_rows_fp(vecs: np.ndarray, ech: np.ndarray, pivots: list[int], F) -> np.ndarray:
    """Residuals of row vectors after reduction by an echelon basis."""
    F = field(F)
    if len(pivots) == 0 or vecs.size == 0:
        return F.canon(vecs)
    return F.sub(vecs, F.matmul(vecs[:, pivots], ech))


# ---------------------------------------------------------------------------
# generic lane: any scalar with +,-,*,inverse(),bool (rational functions)
# ---------------------------------------------------------------------------


def rref_gen(rows: list[list], zero) -> tuple[list[list], list[int]]:
    """Reduced row echelon form for operator-based scalars.

    Rows are copied; `zero` is the scalar zero of the domain.
    """
    R = [list(r) for r in rows]
    nrows = len(R)
    ncols = len(R[0]) if nrows else 0
    pivots: list[int] = []
    pr = 0
    for c in range(ncols):
        if pr >= nrows:
            break
        sel = None
        for r in range(pr, nrows):
            if R[r][c]:
                sel = r
                break
        if sel is None:
            continue
        R[pr], R[sel] = R[sel], R[pr]
        inv = R[pr][c].inverse()
        R[pr] = [inv * x for x in R[pr]]
        for r in range(nrows):
            if r != pr and R[r][c]:
                f = R[r][c]
                R[r] = [x - f * y for x, y in zip(R[r], R[pr])]
        pivots.append(c)
        pr += 1
    return R, pivots


def rank_gen(rows: list[list], zero) -> int:
    return len(rref_gen(rows, zero)[1])


def kernel_gen(rows: list[list], zero, one) -> list[list]:
    """Row basis of the right kernel for operator-based scalars."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    R, pivots = rref_gen(rows, zero)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        out.append(v)
    return out
