"""Graded linear algebra for univariate polynomial matrices over F_q.

A polynomial matrix is an int64 ndarray of element codes of shape
(rows, cols, deg+1); slab [:, :, e] is the coefficient of t^e.  The field
F is a ``FieldCtx`` or a prime, as in ``linalg``.  Every minimal basis
comes from one degree sweep, ``_minimal_basis``: the left kernel
{psi : psi * c = 0} with per-row degree shifts, generator by generator in
ascending shifted degree.  It has two entry points:

* ``graded_kernel_basis`` — a minimal basis of the right kernel of a, the
  sweep on a^T with zero shifts, whose shift structure gives the dimension
  of every homogeneous kernel slice in closed form; and
* ``shifted_left_kernel`` — the minimal indices with the shifts, which
  give the section space of the dual of a cokernel bundle on the
  projective line.

The unknowns of shifted degree <= n come first, so one echelon form up to
a top degree holds that of every lower degree as a column prefix, and the
top grows when the sweep passes it.  Its free columns give the generators
straight away: those of degree n are the kernel vectors of the unknowns of
degree n that are free while the same row's unknown of degree n - 1 is
not.  Such a vector is 0 at every free unknown but its own, so the basis
is in shifted Popov form, weak Popov in particular (Mulders and
Storjohann, J. Symbolic Comput. 35, 2003).  ``solve_in_basis`` solves all
targets of a splitting type with one echelon form, at their top degree,
and writes the coordinates straight into the coefficient array.  The
matrices of a basis-aligned module are almost monomial: in a seed-1
``bundle`` benchmark round half of their rows are empty, and 9 in 10
pivots come from rows that hold a single entry, directly or once other
such rows are gone.  So their eliminations take the sparse route of
``linalg.rref_fp``, which peels those rows before it eliminates.  Every
matrix the engine eliminates (the constraints of a sweep and the
[shifts | targets] of a solve) is built as a ``linalg.Coo`` straight from
the nonzeros of its source, by vectorized gathers and one sort by row, and
the echelon forms come back as ``Coo``s that are read the same way; only
the generators and the coordinates are dense.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left

import numpy as np

from .dpoly import power
from .errors import ConsistencyError
from .linalg import Coo, field, matmul_fp, rref_fp

Pm = np.ndarray  # (rows, cols, deg+1)


def pm_from_pair(x1: np.ndarray, x2: np.ndarray) -> Pm:
    """The pencil x1 + t*x2."""
    return np.stack([x1, x2], axis=2).astype(np.int64)


def pm_trim(a: Pm) -> Pm:
    d = a.shape[2]
    while d > 1 and not a[:, :, d - 1].any():
        d -= 1
    return a[:, :, :d]


def pm_mul(a: Pm, b: Pm, F) -> Pm:
    F = field(F)
    ra, ca, da = a.shape
    rb, cb, db = b.shape
    out = np.zeros((ra, cb, da + db - 1), dtype=np.int64)
    for i in range(da):
        if not a[:, :, i].any():
            continue
        for j in range(db):
            out[:, :, i + j] = F.add(out[:, :, i + j], matmul_fp(a[:, :, i], b[:, :, j], F))
    return pm_trim(out)


def pm_pow(a: Pm, e: int, F) -> Pm:
    """a^e by ``dpoly.power``, as ``linalg.matpow_fp``: no product by the
    identity and no squaring past the highest bit of e."""
    F = field(F)
    one = np.eye(a.shape[0], dtype=np.int64)[:, :, None]
    return power(pm_trim(F.canon(a)).copy(), e, lambda x, y: pm_mul(x, y, F), one)


class GradedGen:
    """One minimal-basis generator: coefficient array (cols, deg+1) plus its degree."""

    __slots__ = ("coeffs", "deg")

    def __init__(self, coeffs: np.ndarray, deg: int):
        self.coeffs = coeffs
        self.deg = deg


def _gather(per_group: np.ndarray, group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(item, at): for each item i, in turn, the entries of its group
    group[i], where group g owns the entries numbered from
    sum(per_group[:g]) on, per_group[g] of them."""
    counts = per_group[group]
    item = np.arange(group.size).repeat(counts)
    skip = (per_group.cumsum() - per_group)[group] - (counts.cumsum() - counts)
    return item, np.arange(item.size) + skip.repeat(counts)


def _constraints(c: Pm, power: np.ndarray, row: np.ndarray) -> Coo:
    """Matrix of psi -> psi * c on the unknowns u (the coefficient of
    t^power[u] in psi_row[u]), its rows ordered by power of t, then column
    of c, as a ``Coo``: the nonzeros of c gathered for each unknown from its
    row of c, then one stable sort by matrix row.  With zero shifts this is
    the linearization of v -> c^T v."""
    _, cols, d1 = c.shape
    src, j, e = c.nonzero()  # ordered by row of c
    unknown, at = _gather(np.bincount(src, minlength=c.shape[0]), row)
    out = (power[unknown] + e[at]) * cols + j[at]
    order = out.argsort(kind="stable")
    shape = ((int(power.max(initial=0)) + d1) * cols, row.size)
    return Coo(out[order], unknown[order], c[src, j, e][at[order]], shape)


def _minimal_basis(c: Pm, shifts: np.ndarray, F, count: int, check: int) -> list[tuple[int, np.ndarray]]:
    """The degree sweep: a minimal basis of {psi row vector : psi * c = 0}
    with row degree shifts, as (shifted degree, coefficients over the
    unknowns of shifted degree <= it) per generator, degrees ascending.

    The coefficient of t^e in psi_m has level e - shifts[m], and the
    unknowns are ordered by level, then row.  The first echelon form reaches
    four levels past the lowest; the top grows by half when the sweep passes
    it, and the generators found so far are kept.  A kernel vector's last
    nonzero lies on a free unknown, and t maps the free unknown (level, m)
    to the free unknown (level + 1, m).  So the generators of level k are
    the kernel vectors of the free unknowns (k, m) with (k - 1, m) not free:
    1 there and -R[i, u] at the pivot of row i.  The shifts of all the
    generators end on distinct free unknowns, one on each, so they span
    every slice.  Once there are count generators, no unknown may become
    free for check more levels.
    """
    rows, cols, d1 = c.shape
    if count == 0:
        return []
    F = field(F)
    lo = -int(shifts.max(initial=0))
    # Each minimal index is at most (d1 - 1) * rank(c) <= (d1 - 1) * rows: by the
    # index sum theorem the unshifted ones add up to at most that, and shifts
    # >= 0 only lower them.  The cap keeps a margin of rows + cols + 5 + max(shifts).
    cap = (d1 - 1) * max(1, rows) + rows + cols + 5 - lo
    gens: list[tuple[int, np.ndarray]] = []  # (level index, coefficients)
    top, done = lo - 1, None
    for k in itertools.count():
        n = lo + k
        if done is None and n > cap:
            raise ConsistencyError(
                f"kernel basis incomplete: found {len(gens)} of {count} generators below degree {cap}"
            )
        if n > top:
            top = min(lo + max(4, (top - lo) * 3 // 2), cap + check if done is None else lo + done + check)
            active = shifts[None, :] + np.arange(lo, top + 1)[:, None] >= 0
            lev, row = np.nonzero(active)  # level index and row of each unknown, level-major
            column = np.full(active.shape, -1)
            column[lev, row] = np.arange(row.size)
            ends = np.cumsum(active.sum(axis=1))
            R, piv = rref_fp(_constraints(c, lo + lev + shifts[row], row), F)
            piv = np.array(piv, dtype=np.int64)
            free = active.copy()
            free[lev[piv], row[piv]] = False
            fresh = free.copy()  # free, but not free one level lower
            fresh[1:] &= ~free[:-1]
        u = column[k, fresh[k]]
        if done is not None:
            if u.size:
                raise ConsistencyError(
                    f"kernel slice of dimension {free[: k + 1].sum()} at degree {n}, "
                    f"{sum(k - k0 + 1 for k0, _ in gens)} predicted"
                )
        elif u.size:
            slot = np.full(row.size, -1)
            slot[u] = np.arange(u.size)
            at = slot[R.col] >= 0
            vecs = np.zeros((u.size, ends[k]), dtype=np.int64)
            vecs[np.arange(u.size), u] = 1
            vecs[slot[R.col[at]], piv[R.row[at]]] = F.neg(R.val[at])
            gens += [(k, vec) for vec in vecs]
            if len(gens) >= count:
                if len(gens) > count:
                    raise ConsistencyError(f"{len(gens)} kernel generators for {count} expected")
                done = k
        if done is not None and k == done + check:
            return [(lo + k0, vec) for k0, vec in gens]


def graded_kernel_basis(a: Pm, F, kappa: int) -> list[GradedGen]:
    """Minimal graded basis of {v in F_q[t]^cols : a(t) v(t) = 0}.

    Args:
        a: polynomial matrix.
        F: the field (FieldCtx or prime).
        kappa: the rank of the kernel over F_q(t), exactly; the sweep stops
            at the kappa-th generator, so a smaller kappa gives the first
            kappa generators (or raises when several share a degree) and a
            larger one raises.

    The returned degrees d_1 <= ... <= d_kappa are the minimal indices;
    the kernel slice in degree n has basis {t^e g : e <= n - deg g}, so
    its dimension is sum(max(0, n - d_j + 1)).  This is the sweep of
    ``_minimal_basis`` on a^T with zero shifts; kappa is exact, so no
    degree past the last generator is checked.
    """
    cols = a.shape[1]
    sweep = _minimal_basis(a.transpose(1, 0, 2), np.zeros(cols, dtype=np.int64), F, kappa, 0)
    return [GradedGen(vec.reshape(n + 1, cols).T.copy(), n) for n, vec in sweep]


def coefficient_rows(gens: list[GradedGen]) -> np.ndarray:
    """All monomial-coefficient vectors of the generators, stacked as rows."""
    if not gens:
        return np.zeros((0, 0), dtype=np.int64)
    return np.hstack([g.coeffs for g in gens]).T


def pm_columns(gens: list[GradedGen], rows: int) -> Pm:
    """The generators as the columns of one polynomial matrix."""
    out = np.zeros((rows, len(gens), max((g.deg for g in gens), default=0) + 1), dtype=np.int64)
    for k, g in enumerate(gens):
        out[:, k, : g.deg + 1] = g.coeffs
    return out


def solve_in_basis(gens: list[GradedGen], targets: Pm, tdeg: int, F) -> tuple[np.ndarray, np.ndarray]:
    """Express each column of targets, of degree <= tdeg, as sum N_m c_m.

    One elimination of [S^T | B] solves every target against the shifts
    t^e N_m with e <= tdeg - deg(N_m): the columns of S^T are the shifts,
    those of B the targets, both as coefficient vectors of degree <= tdeg,
    built as one ``Coo`` by ``_constraints`` with the shifts as powers.  The
    shifts are independent, so a target has at most one set of coordinates;
    as the basis is minimal, one of degree <= n has them in the shifts of
    degree <= n alone (the predictable-degree property; Forney, SIAM J.
    Control 13, 1975), so the coordinates do not depend on the top degree.
    Returns (C, solvable): C[m, j, e] is the coefficient of t^e in c_m for
    target j, shape (len(gens), #targets, max(1, tdeg - min deg + 1));
    C[:, j] means nothing unless solvable[j].
    """
    rows, count, width = targets.shape
    # the generators, then the targets, as the rows of one polynomial matrix,
    # and its unknowns: the shifts t^e N_m, then each target once
    c = np.zeros((len(gens) + count, rows, max([width] + [g.deg + 1 for g in gens])), dtype=np.int64)
    for m, g in enumerate(gens):
        c[m, :, : g.deg + 1] = g.coeffs
    c[len(gens) :, :, :width] = targets.transpose(1, 0, 2)
    sizes = [max(0, tdeg - g.deg + 1) for g in gens]
    per = np.array(sizes + [1] * count, dtype=np.int64)
    row = np.arange(per.size).repeat(per)
    power = np.arange(row.size) - (per.cumsum() - per).repeat(per)
    nshift = row.size - count
    R, piv = rref_fp(_constraints(c, power, row)._replace(shape=((tdeg + 1) * rows, row.size)), F)
    # the rows of R below the rank of S^T hold only target columns, and a
    # target is solvable iff its column vanishes there
    n = R.row.searchsorted(bisect_left(piv, nshift))
    solvable = np.ones(count, dtype=bool)
    solvable[R.col[n:] - nshift] = False
    top = R.col[:n] >= nshift
    i = np.array(piv, dtype=np.int64)[R.row[:n][top]]  # the shift pivoted in each entry's row
    C = np.zeros((len(gens), count, max([1] + sizes)), dtype=np.int64)
    C[row[i], R.col[:n][top] - nshift, power[i]] = R.val[:n][top]
    return C, solvable


def shifted_left_kernel(c: Pm, rowshifts: list[int], F, count: int) -> list[int]:
    """Minimal indices of {psi row vector : psi * c = 0} with degree shifts.

    psi has shifted degree <= n when deg(psi_m) <= n + rowshifts[m]; the
    returned indices eps (len == count) are the degrees where minimal
    generators appear, so the solution space at shifted degree n has
    dimension sum(max(0, n - eps_j + 1)).  This is the sweep of
    ``_minimal_basis``; count comes from a Jordan type, so the predicted
    dimensions of two more degrees are checked.
    """
    return [n for n, _ in _minimal_basis(c, np.array(rowshifts, dtype=np.int64), F, count, 2)]
