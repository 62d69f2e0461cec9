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
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError
from .linalg import field, kernel_fp, matmul_fp, reduce_rows_fp, rref_fp, solve_fp

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


class GradedGen:
    """One minimal-basis generator: coefficient array (cols, deg+1) plus its degree."""

    __slots__ = ("coeffs", "deg")

    def __init__(self, coeffs: np.ndarray, deg: int):
        self.coeffs = coeffs
        self.deg = deg


def _flatten_shift(g: GradedGen, shift: int, vdeg: int, cols: int) -> np.ndarray:
    """t^shift * g as a flattened coefficient row in the deg-<=vdeg layout."""
    v = np.zeros((vdeg + 1) * cols, dtype=np.int64)
    for e in range(g.deg + 1):
        v[(e + shift) * cols : (e + shift + 1) * cols] = g.coeffs[:, e]
    return v


def graded_kernel_basis(a: Pm, F, kappa: int, degcap: int | None = None) -> list[GradedGen]:
    """Minimal graded basis of {v in F_q[t]^cols : a(t) v(t) = 0}.

    Args:
        a: polynomial matrix.
        F: the field (FieldCtx or prime).
        kappa: the rank of the kernel over F_p(t); exactly this many
            generators are returned.
        degcap: optional hard stop (defaults to deg(a)*rank + 1).

    The returned degrees d_1 <= ... <= d_kappa are the minimal indices;
    the kernel slice in degree n has basis {t^e g : e <= n - deg g}, so
    its dimension is sum(max(0, n - d_j + 1)).
    """
    rows, cols, d1 = a.shape
    if kappa == 0:
        return []
    if degcap is None:
        degcap = (d1 - 1) * max(1, cols - kappa) + cols + 1
    gens: list[GradedGen] = []
    for delta in range(degcap + 1):
        K = kernel_fp(linearize(a, delta), F)
        if K.shape[0] == 0:
            continue
        old = [
            _flatten_shift(g, e, delta, cols)
            for g in gens
            for e in range(delta - g.deg + 1)
        ]
        if old:
            ech, piv = rref_fp(np.array(old), F)
            ech = ech[: len(piv)]
        else:
            ech, piv = np.zeros((0, (delta + 1) * cols), dtype=np.int64), []
        for row in K:
            res = reduce_rows_fp(row[None, :], ech, list(piv), F)[0] if len(piv) else row
            if not res.any():
                continue
            coeffs = res.reshape(delta + 1, cols).T.copy()
            if not coeffs[:, delta].any():
                raise ConsistencyError("minimal kernel generator without top coefficient")
            gens.append(GradedGen(coeffs, delta))
            stacked = np.vstack([ech, res[None, :]]) if ech.size else res[None, :]
            ech, piv = rref_fp(stacked, F)
            ech = ech[: len(piv)]
            piv = list(piv)
            if len(gens) == kappa:
                return gens
    raise ConsistencyError(
        f"kernel basis incomplete: found {len(gens)} of {kappa} generators below degree {degcap}"
    )


def kernel_slice_dim(gens: list[GradedGen], n: int) -> int:
    return sum(max(0, n - g.deg + 1) for g in gens)


def coefficient_rows(gens: list[GradedGen]) -> np.ndarray:
    """All monomial-coefficient vectors of the generators, stacked as rows."""
    rows = []
    for g in gens:
        for e in range(g.deg + 1):
            rows.append(g.coeffs[:, e])
    if not rows:
        return np.zeros((0, 0), dtype=np.int64)
    return np.array(rows, dtype=np.int64)


def solve_in_basis(gens: list[GradedGen], target: np.ndarray, tdeg: int, dim: int, F):
    """Express target (coefficient array (dim, tdeg+1)) as sum N_m c_m.

    Degree bounds deg(c_m) <= tdeg - deg(g_m) per the predictable-degree
    property.  Returns a list of coefficient arrays (len tdeg - deg + 1)
    or None when the target is not in the span.
    """
    cols = []
    layout = []
    for m, g in enumerate(gens):
        emax = tdeg - g.deg
        for e in range(emax + 1):
            cols.append(_flatten_shift(g, e, tdeg, dim))
            layout.append((m, e))
    rhs = np.zeros((tdeg + 1) * dim, dtype=np.int64)
    for e in range(min(target.shape[1], tdeg + 1)):
        rhs[e * dim : (e + 1) * dim] = target[:, e]
    if not cols:
        return [] if not rhs.any() else None
    Amat = np.array(cols, dtype=np.int64).T
    x = solve_fp(Amat, rhs, F)
    if x is None:
        return None
    out = [np.zeros(max(0, tdeg - g.deg + 1), dtype=np.int64) for g in gens]
    for val, (m, e) in zip(x, layout):
        out[m][e] = val
    return out


def shifted_left_kernel(
    c: Pm, rowshifts: list[int], F, count: int, degcap: int | None = None
) -> list[int]:
    """Minimal indices of {psi row vector : psi * c = 0} with degree shifts.

    psi has shifted degree <= n when deg(psi_m) <= n + rowshifts[m]; the
    returned indices eps (len == count) are the degrees where minimal
    generators appear, so the solution space at shifted degree n has
    dimension sum(max(0, n - eps_j + 1)).
    """
    rows, cols, d1 = c.shape
    if count == 0:
        return []
    smax = max(rowshifts) if rowshifts else 0
    if degcap is None:
        degcap = (d1 - 1) * max(1, rows) + smax + cols + 5

    gens: list[tuple[int, list[np.ndarray]]] = []  # (n0, per-row coeff arrays)

    def psi_flatten(per_row: list[np.ndarray], n0: int, shift: int, n: int) -> np.ndarray:
        segs = []
        for m in range(rows):
            ln = max(0, n + rowshifts[m] + 1)
            seg = np.zeros(ln, dtype=np.int64)
            src = per_row[m]
            if src.size:
                seg[shift : shift + src.size] = src
            segs.append(seg)
        return np.concatenate(segs) if segs else np.zeros(0, dtype=np.int64)

    def constraint_matrix(n: int):
        lens = [max(0, n + rowshifts[m] + 1) for m in range(rows)]
        total = sum(lens)
        if total == 0:
            return None, lens
        if cols == 0:
            return np.zeros((0, total), dtype=np.int64), lens
        outdeg = n + smax + d1  # generous output degree bound
        blocks = []
        for j in range(cols):
            block = np.zeros((outdeg + 1, total), dtype=np.int64)
            off = 0
            for m in range(rows):
                ln = lens[m]
                if ln:
                    entry = c[m, j]  # coeff array length d1
                    for e in range(ln):
                        hi = min(d1, outdeg + 1 - e)
                        block[e : e + hi, off + e] = entry[:hi]
                off += ln
            blocks.append(block)
        return np.vstack(blocks), lens

    n = -smax
    while n <= degcap:
        M, lens = constraint_matrix(n)
        if M is not None:
            K = kernel_fp(M, F)
            old = []
            for n0, per_row in gens:
                for e in range(n - n0 + 1):
                    old.append(psi_flatten(per_row, n0, e, n))
            if old:
                ech, piv = rref_fp(np.array(old), F)
                ech = ech[: len(piv)]
                piv = list(piv)
            else:
                ech, piv = np.zeros((0, M.shape[1]), dtype=np.int64), []
            for row in K:
                res = reduce_rows_fp(row[None, :], ech, piv, F)[0] if piv else row
                if not res.any():
                    continue
                per_row = []
                off = 0
                for m in range(rows):
                    per_row.append(res[off : off + lens[m]].copy())
                    off += lens[m]
                gens.append((n, per_row))
                stacked = np.vstack([ech, res[None, :]]) if ech.size else res[None, :]
                ech, piv = rref_fp(stacked, F)
                ech = ech[: len(piv)]
                piv = list(piv)
                if len(gens) == count:
                    eps = sorted(g[0] for g in gens)
                    _verify_shifted_dims(F, eps, constraint_matrix)
                    return eps
        n += 1
    raise ConsistencyError(
        f"left kernel incomplete: found {len(gens)} of {count} generators below degree {degcap}"
    )


def _verify_shifted_dims(F, eps, constraint_matrix):
    """Insurance: predicted slice dims must match for two degrees past the last index."""
    for n in (max(eps) + 1, max(eps) + 2):
        M, lens = constraint_matrix(n)
        got = sum(lens) if M is None else kernel_fp(M, F).shape[0]
        want = sum(max(0, n - e + 1) for e in eps)
        if got != want:
            raise ConsistencyError(
                f"shifted kernel dimension {got} != predicted {want} at degree {n}"
            )
