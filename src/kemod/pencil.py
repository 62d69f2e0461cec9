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

The sweep takes the unknowns (the coefficients of psi) once each, in
ascending shifted degree, and reduces the column of psi -> psi * c at each
one by the pivot columns kept so far, as a {constraint: code} map that
touches only the nonzeros (``linalg._eliminate``, or the scalar ops of
``FieldCtx.ops`` over F_{p^k}).  Whether an unknown is a pivot depends
only on the columns before its own, so every degree is final once it is
reduced, and nothing is eliminated twice.  An unknown whose column
vanishes is free, and the combination that made it vanish is its kernel
vector, 0 at every other free unknown.  The generators of degree n are the
kernel vectors of the unknowns of degree n that are free while the same
row's unknown of degree n - 1 is not, so the basis is in shifted Popov
form, weak Popov in particular (Mulders and Storjohann, J. Symbolic
Comput. 35, 2003).  ``solve_in_basis`` solves all targets of a splitting
type with one ``linalg.rref_fp`` of [shifts | targets] at their top
degree, built as a ``linalg.Coo`` straight from the nonzeros by vectorized
gathers and one sort by row; on a basis-aligned module that matrix is
almost monomial, so it takes the sparse route, which peels the rows with a
single entry before it eliminates.  The coordinates are written straight
into the coefficient array.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left

import numpy as np

from .errors import ConsistencyError
from .linalg import Coo, _eliminate, _eliminate_ops, field, matmul_fp, rref_fp

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

    The coefficient of t^e in psi_m is the unknown (e - shifts[m], m), of
    that level, and the unknowns are taken once each, by level, then row.
    The column of psi -> psi * c at an unknown holds row m of c shifted to
    power e; it is reduced by the pivot columns kept so far (``_reduce``).
    A column that is left independent is kept as a pivot.  One that
    vanishes belongs to a free unknown u, and the combination of unknowns
    that made it vanish is the kernel vector with 1 at u, 0 at every other
    free unknown and the unique coefficients on the pivot unknowns before
    u; it is made only for the unknowns that give generators
    (``_combination``).  Whether a column is a pivot depends only on the
    columns before it, so each level is final once it is reduced.  A kernel
    vector's last nonzero lies on a free unknown, and t maps the free
    unknown (level, m) to the free unknown (level + 1, m).  So the
    generators of level k are the kernel vectors of the free unknowns (k, m)
    with (k - 1, m) not free.  The shifts of all the generators end on
    distinct free unknowns, one on each, so they span every slice, and the
    basis is in shifted Popov form, weak Popov in particular (Mulders and
    Storjohann, J. Symbolic Comput. 35, 2003).  Once there are count
    generators, no unknown may become free for check more levels.
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
    # row m of c as {e * cols + j: c[m, j, e]}, its nonzeros keyed by the
    # constraint (power of t, column of c) they reach from power 0
    shift = shifts.tolist()
    src, j, e = c.nonzero()
    entries: list[list[tuple[int, int]]] = [[] for _ in range(rows)]
    for m, key, x in zip(src.tolist(), (e * cols + j).tolist(), c[src, j, e].tolist()):
        entries[m].append((key, x))
    basis: dict[int, dict] = {}  # lead constraint -> pivot column
    recipes: dict[int, tuple] = {}  # lead constraint -> (unknown, steps, scale)
    gens: list[tuple[int, np.ndarray]] = []  # (level index, coefficients)
    free = [False] * rows  # whether row m's unknown of the last level was free
    nfree = u = 0
    done = None
    for k in itertools.count():
        n = lo + k
        if done is None and n > cap:
            raise ConsistencyError(
                f"kernel basis incomplete: found {len(gens)} of {count} generators below degree {cap}"
            )
        fresh = []  # (unknown, steps) of the free unknowns (k, m) with (k - 1, m) not free
        for m, s in enumerate(shift):
            if n + s < 0:
                continue
            off = (n + s) * cols
            steps = _reduce({key + off: x for key, x in entries[m]}, u, basis, recipes, F)
            if steps is not None:
                nfree += 1
                if not free[m]:
                    fresh.append((u, steps))
            free[m] = steps is not None
            u += 1
        if fresh and done is not None:
            raise ConsistencyError(
                f"kernel slice of dimension {nfree} at degree {n}, "
                f"{sum(k - k0 + 1 for k0, _ in gens)} predicted"
            )
        if fresh:
            vecs = np.zeros((len(fresh), u), dtype=np.int64)
            for vec, (v, steps) in zip(vecs, fresh):
                comb = _combination(v, steps, recipes, F)
                vec[list(comb)] = list(comb.values())
            gens += [(k, vec) for vec in vecs]
            if len(gens) >= count:
                if len(gens) > count:
                    raise ConsistencyError(f"{len(gens)} kernel generators for {count} expected")
                done = k
        if done is not None and k == done + check:
            return [(lo + k0, vec) for k0, vec in gens]


def _reduce(col: dict, v: int, basis: dict, recipes: dict, F) -> list | None:
    """Reduce the column {constraint: code} of unknown v by the pivot
    columns of basis, each kept with a unit at its lead, the least
    constraint it holds.  Returns the steps (lead, f), col -= f *
    basis[lead], that make it vanish; or, when it does not, keeps what is
    left as the pivot of its lead, with the recipe (v, steps, scale) of its
    combination in recipes, and returns None."""
    eliminate, arg = (_eliminate, F.p) if F.k == 1 else (_eliminate_ops, F.ops)
    steps = []
    while col:
        lead = min(col)
        f = col[lead]
        b = basis.get(lead)
        if b is None:
            if f != 1:
                f = F.ops.inv(f)
                col = {i: F.ops.mul(x, f) for i, x in col.items()}
            basis[lead] = col
            recipes[lead] = (v, steps, f)
            return None
        steps.append((lead, f))
        eliminate(col, f, b, arg)
    return steps


def _combination(u: int, steps: list, recipes: dict, F) -> dict:
    """The kernel vector {unknown: code} of the free unknown u whose column
    the steps made vanish, by back substitution through the recipes.

    The column of u is sum y[lead] * basis[lead] with y = f of the steps,
    and a pivot column is scale * (column of v - sum f * basis[lead']) by
    its recipe (v, steps, scale).  Taking the pivots that y reaches from the
    last made down, each one's y is final when it is taken: it puts
    -scale * y at v and moves y * scale * f onto each lead' of its steps,
    which were made before it."""
    ops = F.ops
    y = dict(steps)  # each lead is in the steps at most once
    heap = [(-recipes[lead][0], lead) for lead in y]
    heapq.heapify(heap)
    comb = {u: 1}
    while heap:
        lead = heapq.heappop(heap)[1]
        coef = y.pop(lead)
        if not coef:
            continue
        v, pivot_steps, scale = recipes[lead]
        if scale != 1:
            coef = ops.mul(coef, scale)
        comb[v] = ops.neg(coef)
        for i, f in pivot_steps:
            if i in y:
                y[i] = ops.sub(y[i], ops.mul(coef, f))
            else:
                y[i] = ops.neg(ops.mul(coef, f))
                heapq.heappush(heap, (-recipes[i][0], i))
    return comb


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
