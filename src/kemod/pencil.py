"""Graded linear algebra for univariate polynomial matrices over F_q.

A polynomial matrix is an int64 ndarray of element codes of shape
(rows, cols, deg+1); slab [:, :, e] is the coefficient of t^e.  The field
F is a ``FieldCtx`` or a prime, as in ``linalg``.  The two workhorses are

* ``graded_kernel_basis`` — a minimal basis of the polynomial kernel,
  found degree by degree, whose shift structure gives the dimension of
  every homogeneous kernel slice in closed form; and
* ``shifted_left_kernel`` — the same construction for row vectors with
  per-row degree shifts, which is exactly the section space of the dual
  of a cokernel bundle on the projective line.

Both sweep the degree upward.  Where a degree's kernel is larger than the
span of the shifts of the earlier generators, one echelon form of its rows,
with the pivot columns of those shifts moved first, gives the degree's new
generators (``_complement``).  Neither eliminates each degree anew: the
unknowns of degree <= n come first, so one echelon form up to a top degree
holds that of every lower degree as a column prefix (``_PrefixEchelon``),
and the top grows when the sweep passes it.  ``solve_in_basis`` solves
every target of one degree with one echelon form.  The matrices of a
basis-aligned module have about one nonzero per row, so their eliminations
take the sparse route of ``linalg.rref_fp``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError
from .linalg import field, kernel_of_rref, matmul_fp, rref_fp, solve_fp

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
    n = a.shape[0]
    result = np.eye(n, dtype=np.int64)[:, :, None]
    base = a
    while e:
        if e & 1:
            result = pm_mul(result, base, F)
        base = pm_mul(base, base, F)
        e >>= 1
    return result


def linearize(a: Pm, vdeg: int) -> np.ndarray:
    """Matrix of v(t) -> a(t) v(t) on coefficient vectors of deg <= vdeg."""
    rows, cols, d1 = a.shape
    out = np.zeros(((vdeg + d1) * rows, (vdeg + 1) * cols), dtype=np.int64)
    for e in range(vdeg + 1):
        for i in range(d1):
            out[(e + i) * rows : (e + i + 1) * rows, e * cols : (e + 1) * cols] = a[:, :, i]
    return out


class _PrefixEchelon:
    """One echelon form of M read at the column prefixes M[:, :ends[k]]: the
    RREF of a column prefix is the prefix of the RREF, so each prefix's
    nullity and kernel (as ``kernel_fp`` gives it) come without a new
    elimination."""

    def __init__(self, M: np.ndarray, ends: np.ndarray, F):
        self.F, self.ends = field(F), ends
        self.R, self.piv = rref_fp(M, self.F)
        self.ranks = np.searchsorted(self.piv, ends)

    def nullity(self, k: int) -> int:
        return int(self.ends[k] - self.ranks[k])

    def kernel(self, k: int) -> np.ndarray:
        r = self.ranks[k]
        return kernel_of_rref(self.R[:r, : self.ends[k]], self.piv[:r], self.F)


class GradedGen:
    """One minimal-basis generator: coefficient array (cols, deg+1) plus its degree."""

    __slots__ = ("coeffs", "deg")

    def __init__(self, coeffs: np.ndarray, deg: int):
        self.coeffs = coeffs
        self.deg = deg


def _shift_rows(gens: list[GradedGen], n: int, cols: int) -> np.ndarray:
    """Rows t^e g for every generator g and e = 0..n - deg g, flattened in
    the deg-<=n layout (coefficient of t^e in block e)."""
    out = np.zeros((kernel_slice_dim(gens, n), (n + 1) * cols), dtype=np.int64)
    i = 0
    for g in gens:
        flat = g.coeffs.T.reshape(-1)
        for e in range(n - g.deg + 1):
            out[i, e * cols : e * cols + flat.size] = flat
            i += 1
    return out


def _complement(K: np.ndarray, old: np.ndarray, F) -> np.ndarray:
    """The RREF of the rows of span(K) that vanish on the pivot columns of
    old, a complement of span(old) in span(K) (old independent and inside
    span(K)).  With those columns moved first, the echelon form of K has one
    row pivoted on each of them and the rest vanish there: the rest, with
    the columns moved back, is that RREF."""
    lead = rref_fp(old, F)[1] if old.shape[0] else []
    rest = np.ones(K.shape[1], dtype=bool)
    rest[lead] = False
    order = np.concatenate([np.array(lead, dtype=np.int64), np.flatnonzero(rest)])
    R, piv = rref_fp(K[:, order], F)
    n = len(lead)
    if piv[:n] != list(range(n)) or len(piv) - n != K.shape[0] - old.shape[0]:
        raise ConsistencyError(
            f"kernel slice of dimension {K.shape[0]} with {old.shape[0]} old shifts has {len(piv) - n} new generators"
        )
    out = np.empty((len(piv) - n, K.shape[1]), dtype=np.int64)
    out[:, order] = R[n : len(piv)]
    return out


def graded_kernel_basis(a: Pm, F, kappa: int) -> list[GradedGen]:
    """Minimal graded basis of {v in F_q[t]^cols : a(t) v(t) = 0}.

    Args:
        a: polynomial matrix.
        F: the field (FieldCtx or prime).
        kappa: the rank of the kernel over F_p(t); exactly this many
            generators are returned.

    The returned degrees d_1 <= ... <= d_kappa are the minimal indices;
    the kernel slice in degree n has basis {t^e g : e <= n - deg g}, so
    its dimension is sum(max(0, n - d_j + 1)).  The unknowns of degree
    <= n are a column prefix of ``linearize(a, top)`` for n <= top, so one
    echelon form up to a top degree gives every lower degree's nullity and
    kernel (``_PrefixEchelon``); the top grows by half when the sweep
    passes it.  Where the nullity exceeds the span of the shifts of the
    earlier generators, the kernel gives the new ones in one batch
    (``_complement``); each has a nonzero top coefficient, since otherwise
    it would lie in the slice one degree lower, which the earlier shifts span.
    """
    rows, cols, d1 = a.shape
    if kappa == 0:
        return []
    degcap = (d1 - 1) * max(1, cols - kappa) + cols + 1
    gens: list[GradedGen] = []
    top = -1
    for delta in range(degcap + 1):
        if delta > top:  # degree 0 alone first, then the top grows by half
            top = min(max(3, top * 3 // 2) if delta else 0, degcap)
            ech = _PrefixEchelon(linearize(a, top), cols * np.arange(1, top + 2), F)
        if ech.nullity(delta) == kernel_slice_dim(gens, delta):
            continue
        for res in _complement(ech.kernel(delta), _shift_rows(gens, delta, cols), F):
            coeffs = res.reshape(delta + 1, cols).T.copy()
            if not coeffs[:, delta].any():
                raise ConsistencyError("minimal kernel generator without top coefficient")
            gens.append(GradedGen(coeffs, delta))
        if len(gens) >= kappa:
            if len(gens) > kappa:
                raise ConsistencyError(f"{len(gens)} kernel generators for a kernel of rank {kappa}")
            return gens
    raise ConsistencyError(
        f"kernel basis incomplete: found {len(gens)} of {kappa} generators below degree {degcap}"
    )


def kernel_slice_dim(gens: list[GradedGen], n: int) -> int:
    return sum(max(0, n - g.deg + 1) for g in gens)


def coefficient_rows(gens: list[GradedGen]) -> np.ndarray:
    """All monomial-coefficient vectors of the generators, stacked as rows."""
    if not gens:
        return np.zeros((0, 0), dtype=np.int64)
    return np.hstack([g.coeffs for g in gens]).T


def solve_in_basis(gens: list[GradedGen], targets: list[np.ndarray], tdeg: int, dim: int, F) -> list:
    """Express each target (coefficient array (dim, <= tdeg+1)) as sum N_m c_m.

    The targets share the degree tdeg, so one ``solve_fp`` solves them all
    against the shifts t^e N_m with e <= tdeg - deg(N_m) (the
    predictable-degree bound).  Returns, per target, a list of coefficient
    arrays (len tdeg - deg(N_m) + 1), or None when the target is not in the
    span.
    """
    B = np.zeros((len(targets), (tdeg + 1) * dim), dtype=np.int64)
    for j, t in enumerate(targets):
        w = min(t.shape[1], tdeg + 1)
        B[j, : w * dim] = t[:, :w].T.reshape(-1)
    sizes = [max(0, tdeg - g.deg + 1) for g in gens]
    starts = np.cumsum([0] + sizes)
    xs = solve_fp(_shift_rows(gens, tdeg, dim).T, B.T, F)
    return [None if x is None else [x[s : s + size] for s, size in zip(starts, sizes)] for x in xs]


def shifted_left_kernel(c: Pm, rowshifts: list[int], F, count: int) -> list[int]:
    """Minimal indices of {psi row vector : psi * c = 0} with degree shifts.

    psi has shifted degree <= n when deg(psi_m) <= n + rowshifts[m]; the
    returned indices eps (len == count) are the degrees where minimal
    generators appear, so the solution space at shifted degree n has
    dimension sum(max(0, n - eps_j + 1)).  The unknowns are ordered by level
    (the coefficient of t^e in psi_m has level e - rowshifts[m]), so those of
    shifted degree <= n are a prefix of the columns and one echelon form of
    the constraint matrix up to a top degree gives the kernel of every lower
    degree; the top grows until the generators and the dimensions of two
    more degrees are in.  New generators are chosen per degree in one batch,
    as in ``graded_kernel_basis``.
    """
    rows, cols, d1 = c.shape
    if count == 0:
        return []
    smax = max(rowshifts) if rowshifts else 0
    degcap = (d1 - 1) * max(1, rows) + smax + cols + 5
    shifts = np.array(rowshifts, dtype=np.int64)

    def sweep(top: int):
        """The indices from one echelon form up to shifted degree top, or
        None when that is too low to find and check them."""
        levels = np.arange(-smax, top + 1)
        active = shifts[None, :] + levels[:, None] >= 0
        lev, row = np.nonzero(active)  # level index and row of each unknown, level-major
        power = levels[lev] + shifts[row]
        ends = np.cumsum(active.sum(axis=1))  # columns of the levels up to each one
        column = np.full((levels.size, rows), -1)
        column[lev, row] = np.arange(row.size)
        outdeg = top + smax + d1
        M = np.zeros((cols * (outdeg + 1), row.size), dtype=np.int64)
        for i in range(d1):
            M[np.arange(cols)[:, None] * (outdeg + 1) + power + i, np.arange(row.size)] = c[row, :, i].T
        ech = _PrefixEchelon(M, ends, F)
        gens: list[tuple[int, np.ndarray, int]] = []  # (level index, entries, their count)
        done = None
        for k, n in enumerate(levels):
            want = sum(k - g[0] + 1 for g in gens)
            got = ech.nullity(k)
            if done is not None:
                # insurance: the predicted dimensions for two degrees past the last index
                if got != want:
                    raise ConsistencyError(f"shifted kernel dimension {got} != predicted {want} at degree {n}")
                if k == done + 2:
                    return [int(levels[g[0]]) for g in gens]
                continue
            if got != want:
                old = np.zeros((want, ends[k]), dtype=np.int64)
                i = 0
                for k0, vec, size in gens:
                    for e in range(k - k0 + 1):
                        old[i, column[lev[:size] + e, row[:size]]] = vec
                        i += 1
                for res in _complement(ech.kernel(k), old, F):
                    gens.append((k, res, ends[k]))
            if len(gens) >= count:
                if len(gens) > count:
                    raise ConsistencyError(f"{len(gens)} left kernel generators for {count} expected")
                if n > degcap:
                    return None
                done = k
        return None

    span = 4
    while True:
        top = min(span - smax, degcap + 2)
        eps = sweep(top)
        if eps is not None:
            return eps
        if top == degcap + 2:
            raise ConsistencyError(f"left kernel incomplete: fewer than {count} generators below degree {degcap}")
        span = span * 3 // 2
