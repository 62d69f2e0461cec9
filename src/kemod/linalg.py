"""Exact linear algebra over any F_q, plus a generic elimination lane
(``rref_gen``, ``kernel_gen``) for any scalars with +, -, *, inverse() and
truth.  No library route uses that lane; it stays as the scalar reference
that the tests hold the array lane to, and the benchmark's tracer counts
its calls to show that no workload reaches it.

Matrices over F_q are int64 arrays of element codes (see ``gf.FieldCtx``)
or, where they are large and mostly zero, ``Coo`` triplets of their
nonzeros; every routine takes the field as a ``FieldCtx`` or, for a prime
field, as the plain prime p, and does its arithmetic through the field's
array methods.  Every elimination of a matrix goes through ``rref_fp``,
which picks its route from the input's nonzero count: over a prime field a
matrix with a few nonzeros per row and column first loses its single-entry
rows, which are pivots of their own, in vectorized passes, and the rest is
reduced row by row as {column: residue} maps, touching only the nonzeros;
any other matrix is reduced by dense row operations, vectorized per
pivot.  Both routes give the same canonical echelon form, and in the
input's form: dense in, dense out; ``Coo`` in, ``Coo`` out, with no dense
array of the matrix's size unless it takes the dense route; ``kernel_fp``
takes dense input only.  Echelon forms of subspaces are built in
``subspace.Subspace``.  The degree sweeps of ``pencil`` eliminate no
matrix: they reduce one column map at a time with ``_eliminate``, or
``_eliminate_ops`` over F_{p^k}.  Matrix products go through float64 BLAS
when the intermediate values provably fit in the 53-bit mantissa, in
pieces that BLAS makes on the calling thread unless a product is very wide
(``gf._matmul_mod``), so no thread setting is needed.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

import numpy as np

from .dpoly import power
from .errors import InputError
from .gf import FieldCtx, prime_field

# ---------------------------------------------------------------------------
# numpy lane: matrices of codes over F_q
# ---------------------------------------------------------------------------


def field(F) -> FieldCtx:
    """The field given as a FieldCtx or as a prime."""
    return F if isinstance(F, FieldCtx) else prime_field(F)


def matmul_fp(a: np.ndarray, b: np.ndarray, F) -> np.ndarray:
    """Exact a @ b over F_q."""
    return field(F).matmul(a, b)


def matpow_fp(a: np.ndarray, e: int, F) -> np.ndarray:
    """a^e over F_q by ``dpoly.power``: no product by the identity and no
    squaring past the highest bit of e.  The result never shares memory with
    a."""
    F = field(F)
    return power(F.canon(a).copy(), e, F.matmul, np.eye(a.shape[0], dtype=np.int64))


class Coo(NamedTuple):
    """A rows x cols matrix over F_q as (row, column, value) triplets, in
    ascending row order, at most one per position.  A value may be 0, or p
    or more over F_p; positions without a triplet hold 0."""

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "Coo":
        row, col = a.nonzero()
        return cls(row, col, a[row, col], a.shape)

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.int64)
        out[self.row, self.col] = self.val
        return out


SPARSE_MIN_CELLS = 16
SPARSE_MAX_NNZ_PER_LINE = 2
SPARSE_PEEL_RATIO = 8


def rref_fp(a, F) -> tuple:
    """Reduced row echelon form over F_q of a dense matrix or a ``Coo``.

    Returns:
        (R, pivots): R with unit pivots and zeros above/below them, of the
        input's shape, a ``Coo`` of its nonzeros for a ``Coo`` input and an
        int64 array for a dense one; pivots the list of pivot column
        indices.

    Over a prime field, a matrix of at least ``SPARSE_MIN_CELLS`` cells with
    at most ``SPARSE_MAX_NNZ_PER_LINE`` * (rows + cols) nonzeros takes the
    sparse route (``_rref_sparse``): it peels the rows with a single entry
    in vectorized passes and reduces the rest as row maps, touching only
    the nonzeros.  A ``Coo`` hands it its triplets, a dense matrix those of
    its nonzeros.  Every other matrix, a ``Coo`` made dense, is reduced by
    dense row operations, one vectorized pass per pivot.  Both give the same
    canonical (R, pivots).  The crossover, measured per call (best of 5,
    2-CPU machine, one BLAS thread) on the 3291 sparse-route eliminations
    of one seed-1 ``bundle`` and one ``suite`` benchmark round, as the
    sparse route's time over the dense route's (median, 5-95 %): 1.05
    (0.65-2.9) at 16-31 cells, 0.87 (0.50-2.3) at 32-63, 0.59 (0.37-1.5)
    at 64-255, 0.34 (0.11-0.84) at 256-4095 and 0.10 (0.05-0.23) from 4096
    on; below 16 cells 2.2 on random matrices.  On random n x n matrices
    over F_2 and F_5 with n = 8..700 it is 0.27-0.92 with 2 (rows + cols)
    nonzeros and mostly 1.4-2.7 with 4 (rows + cols), whose rows fill in.
    """
    F = field(F)
    coo = isinstance(a, Coo)
    if not coo:
        a = np.asarray(a, dtype=np.int64)
    rows, cols = a.shape
    if F.k == 1 and rows * cols >= SPARSE_MIN_CELLS:
        if coo:
            sparse = a if np.count_nonzero(a.val) <= SPARSE_MAX_NNZ_PER_LINE * (rows + cols) else None
        else:
            flat = a.ravel()
            nz = flat.nonzero()[0]
            sparse = None
            if nz.size <= SPARSE_MAX_NNZ_PER_LINE * (rows + cols):
                sparse = Coo(*np.divmod(nz, cols), flat[nz], a.shape)
        if sparse is not None:
            r, c, vals, pivots = _rref_sparse(sparse, F.p)
            if not coo:
                return Coo(r, c, vals, a.shape).dense(), pivots
            order = r.argsort(kind="stable")
            return Coo(r[order], c[order], vals[order], a.shape), pivots
    R = F.canon(a.dense() if coo else a)
    if R is a:
        R = R.copy()
    pivots: list[int] = []
    pr = 0
    for c in range(cols):
        if pr >= rows:
            break
        nz = R[pr:, c].nonzero()[0]
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
    return (Coo.from_dense(R) if coo else R), pivots


def _rref_sparse(a: Coo, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """``rref_fp`` over F_p of a matrix given as triplets.

    The triplets that are not 0 mod p are kept, in row order.  First
    the rows with a single entry are peeled, in vectorized passes over the
    triplets (the singleton pass of structured Gaussian elimination; see
    LaMacchia and Odlyzko, CRYPTO '90).  This is exact: a row whose only
    entry is at column c puts e_c in the row space, so c is a pivot, e_c is
    its row of the RREF (1 at c, 0 at every other pivot), and striking c
    from every other row leaves the row space as it was.  Striking can
    leave other rows with a single entry, so the passes repeat.  But a
    chain peels one column per pass, and so the peel stops after a pass
    that struck fewer than one in ``SPARSE_PEEL_RATIO`` of the entries it
    left: with the ratio 8, every pass that goes on shrinks the entries to
    at most 8/9 of them, so all passes together touch at most 9 times the
    nonzeros.  On the 163 sparse-route calls of a seed-1 ``bundle`` round,
    the first pass peels 6992 columns, passes bounded so peel 8696 in at
    most 14 passes, and unbounded passes would peel 9092 in up to 17;
    eye(n) + 2 eye(n, 1) over F_3 stops after one pass.

    The rows left, the core, become {column: residue} maps.  Each is reduced
    at its leading column by the echelon row with that pivot until its
    leading column is new, and joins the echelon rows there with a unit
    lead.  Back substitution, from the last pivot up, then clears the pivot
    columns of every core row.  The core holds no peeled column, so its
    rows and the e_c, in pivot order, are the RREF.  Returns its triplets
    (row, column, value), in no particular order, and the pivots."""
    rows, cols = a.shape
    vals = a.val % p
    live = vals != 0
    r, c, vals = a.row[live], a.col[live], vals[live]
    peeled = np.zeros(cols, dtype=bool)
    peel = True
    while True:
        # edge[i]: entry i starts a row; edge[i + 1]: entry i ends one
        edge = np.empty(r.size + 1, dtype=bool)
        edge[0] = edge[-1] = True
        np.not_equal(r[1:], r[:-1], out=edge[1:-1])
        if not peel:
            break
        alone = c[edge[:-1] & edge[1:]]
        if not alone.size:
            break
        peeled[alone] = True  # the columns of earlier passes are gone from c
        keep = ~peeled[c]
        before = r.size
        r, c, vals = r[keep], c[keep], vals[keep]
        peel = (before - r.size) * SPARSE_PEEL_RATIO >= r.size > 0
    starts = edge.nonzero()[0].tolist()
    cl, vl = c.tolist(), vals.tolist()
    basis: dict[int, dict[int, int]] = {}
    for s, e in zip(starts, starts[1:]):
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
    for lead in sorted(basis, reverse=True):
        row = basis[lead]
        for j in [j for j in row if j > lead and j in basis]:
            _eliminate(row, row[j], basis[j], p)
    units = peeled.nonzero()[0]
    leads = np.fromiter(basis, dtype=np.int64, count=len(basis))
    peeled[leads] = True  # from here on it marks every pivot column
    pivots = peeled.nonzero()[0]
    sizes = np.fromiter(map(len, basis.values()), dtype=np.int64, count=len(basis))
    # the e_c, then the core rows; r holds the pivot of each entry's row
    n = units.size
    r, c, vals = np.empty((3, n + int(sizes.sum())), dtype=np.int64)
    r[:n] = c[:n] = units
    vals[:n] = 1
    r[n:] = leads.repeat(sizes)
    c[n:] = np.fromiter(chain.from_iterable(basis.values()), np.int64)
    vals[n:] = np.fromiter(chain.from_iterable(map(dict.values, basis.values())), np.int64)
    return pivots.searchsorted(r), c, vals, pivots.tolist()


def _eliminate(row: dict, f: int, b: dict, p: int) -> None:
    """row -= f * b over F_p, in place, dropping the entries that vanish."""
    for j, x in b.items():
        y = (row.get(j, 0) - f * x) % p
        if y:
            row[j] = y
        else:
            del row[j]


def _eliminate_ops(row: dict, f: int, b: dict, ops) -> None:
    """row -= f * b over F_q by the scalar ops of ``FieldCtx.ops``, in place,
    dropping the entries that vanish."""
    for j, x in b.items():
        y = ops.sub(row.get(j, 0), ops.mul(f, x))
        if y:
            row[j] = y
        else:
            del row[j]


def rank_fp(a, F) -> int:
    return len(rref_fp(a, F)[1])


def kernel_fp(a: np.ndarray, F) -> np.ndarray:
    """Row basis of the right kernel {x : a @ x = 0} over F_q of a dense
    matrix: one row per free column of the RREF R, 1 there and
    -R[i, free] at pivots[i]."""
    F = field(F)
    R, pivots = rref_fp(a, F)
    cols = R.shape[1]
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = is_free.nonzero()[0]
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = F.neg(R[: len(pivots)][:, free].T)
    return basis


def inv_fp(a, F) -> np.ndarray:
    F = field(F)
    a = F.canon(a)
    n = a.shape[0]
    R, pivots = rref_fp(np.hstack([a, np.eye(n, dtype=np.int64)]), F)
    if pivots[:n] != list(range(n)):
        raise InputError("matrix not invertible")
    return R[:, n:]


# ---------------------------------------------------------------------------
# generic lane: any scalar with +,-,*,inverse(),bool
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
