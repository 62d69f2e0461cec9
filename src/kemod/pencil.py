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

Where a degree's kernel is larger than the span of the shifts of the
earlier generators, one echelon form of its rows, with the pivot columns of
those shifts moved first, gives the degree's new generators
(``_complement``).  No degree is eliminated anew: the unknowns of degree
<= n come first, so one echelon form up to a top degree holds that of
every lower degree as a column prefix (``_PrefixEchelon``), and the top
grows when the sweep passes it.  ``solve_in_basis`` solves all targets of
a splitting type with one echelon form, at their top degree, and writes
the coordinates straight into the coefficient array.  The matrices of a
basis-aligned module are almost monomial: in a seed-1 ``bundle`` benchmark
round half of their rows are empty, and 9 in 10 pivots come from rows that
hold a single entry, directly or once other such rows are gone.  So their
eliminations take the sparse route of ``linalg.rref_fp``, which peels
those rows before it eliminates.  Every matrix the engine eliminates (the
constraints of a sweep, the shifts of the old generators, a degree's
kernel and the [shifts | targets] of a solve) is built as a
``linalg.Coo`` straight from the nonzeros of its source, by vectorized
gathers and one sort by row, and the echelon forms and kernels come back
as ``Coo``s that are read the same way; only the new generators and the
coordinates are dense.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left

import numpy as np

from .dpoly import power
from .errors import ConsistencyError
from .linalg import Coo, field, kernel_of_rref, matmul_fp, rref_fp

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


class _PrefixEchelon:
    """One echelon form of M read at the column prefixes M[:, :ends[k]]: the
    RREF of a column prefix is the prefix of the RREF, so each prefix's
    nullity and kernel (as ``kernel_fp`` gives it) come without a new
    elimination."""

    def __init__(self, M, ends: np.ndarray, F):
        self.F, self.ends = field(F), ends
        self.R, self.piv = rref_fp(M, self.F)
        self.ranks = np.searchsorted(self.piv, ends)

    def nullity(self, k: int) -> int:
        return int(self.ends[k] - self.ranks[k])

    def kernel(self, k: int):
        return kernel_of_rref(self.R, self.piv[: self.ranks[k]], self.F, self.ends[k])


class GradedGen:
    """One minimal-basis generator: coefficient array (cols, deg+1) plus its degree."""

    __slots__ = ("coeffs", "deg")

    def __init__(self, coeffs: np.ndarray, deg: int):
        self.coeffs = coeffs
        self.deg = deg


def _complement(K: Coo, old, F) -> np.ndarray:
    """The RREF of the rows of span(K) that vanish on the pivot columns of
    old (dense or a ``Coo``), a complement of span(old) in span(K) (old
    independent and inside span(K)).  With those columns moved first, the
    echelon form of K has one row pivoted on each of them and the rest
    vanish there: the rest, with the columns moved back, is that RREF."""
    lead = rref_fp(old, F)[1] if old.shape[0] else []
    rest = np.ones(K.shape[1], dtype=bool)
    rest[lead] = False
    order = np.concatenate([np.array(lead, dtype=np.int64), rest.nonzero()[0]])
    R, piv = rref_fp(K._replace(col=order.argsort()[K.col]), F)
    n = len(lead)
    if piv[:n] != list(range(n)) or len(piv) - n != K.shape[0] - old.shape[0]:
        raise ConsistencyError(
            f"kernel slice of dimension {K.shape[0]} with {old.shape[0]} old shifts has {len(piv) - n} new generators"
        )
    out = np.zeros((len(piv) - n, K.shape[1]), dtype=np.int64)
    first = R.row.searchsorted(n)
    out[R.row[first:] - n, order[R.col[first:]]] = R.val[first:]
    return out


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


def _old_shifts(gens: list[tuple[int, np.ndarray]], k: int, lev, row, column, width: int) -> Coo:
    """The shifts t^e g of the generators g found so far that stay within
    level index k, one row each (generator by generator, e ascending), over
    the first width unknowns, as a ``Coo``: the coefficient of g at unknown
    u moves to the unknown of level index lev[u] + e and row row[u]."""
    if not gens:
        return Coo(*[np.zeros(0, dtype=np.int64)] * 3, (0, int(width)))
    sizes = np.fromiter((vec.size for _, vec in gens), np.int64, len(gens))
    flat = np.concatenate([vec for _, vec in gens])
    nz = flat.nonzero()[0]
    start = sizes.cumsum() - sizes
    owner = start.searchsorted(nz, side="right") - 1
    shifts = k + 1 - np.fromiter((k0 for k0, _ in gens), np.int64, len(gens))
    g = np.arange(len(gens)).repeat(shifts)  # the generator of each shift
    out, at = _gather(np.bincount(owner, minlength=len(gens)), g)
    u = nz[at] - start[owner[at]]
    e = out - (shifts.cumsum() - shifts)[g[out]]
    return Coo(out, column[lev[u] + e, row[u]], flat[nz[at]], (g.size, int(width)))


def _minimal_basis(c: Pm, shifts: np.ndarray, F, count: int, check: int) -> list[tuple[int, np.ndarray]]:
    """The degree sweep: a minimal basis of {psi row vector : psi * c = 0}
    with row degree shifts, as (shifted degree, coefficients over the
    unknowns of shifted degree <= it) per generator, degrees ascending.

    The coefficient of t^e in psi_m has level e - shifts[m], and the
    unknowns are ordered by level.  The first echelon form reaches four
    levels past the lowest; the top grows by half when the sweep passes it,
    and the generators found so far are kept.  Each new generator has a
    coefficient at its own level, since otherwise it would lie in the slice
    one level lower, which the earlier shifts span.  Once there are count
    generators, the predicted nullity is checked at check more levels.
    """
    rows, cols, d1 = c.shape
    if count == 0:
        return []
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
            ech = _PrefixEchelon(_constraints(c, lo + lev + shifts[row], row), ends, F)
        want = sum(k - k0 + 1 for k0, _ in gens)
        got = ech.nullity(k)
        if done is not None:
            if got != want:
                raise ConsistencyError(f"kernel slice of dimension {got} at degree {n}, {want} predicted")
        elif got != want:
            for vec in _complement(ech.kernel(k), _old_shifts(gens, k, lev, row, column, ends[k]), F):
                if not vec[ends[k] - active[k].sum() :].any():
                    raise ConsistencyError("minimal kernel generator without a coefficient at its degree")
                gens.append((k, vec))
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
