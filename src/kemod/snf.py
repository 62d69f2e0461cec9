"""Smith normal form over F_q[t] with transform certificates.

Classic pivoting algorithm: bring the minimum-degree entry to the pivot,
clear its row and column by Euclidean division, restart whenever a
remainder drops the pivot degree, and enforce the divisibility chain by
folding offending rows into the pivot row.  Invariant factors come out
monic; U and V are unimodular and satisfy U * A * V = D exactly.  Dense
polynomials hold element codes (see ``gf.FieldCtx``) for every F_q.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dpoly
from .errors import InputError
from .gf import FieldCtx
from .poly import Poly


def _poly_to_dense(ctx, p: Poly):
    if p.nvars != 1:
        raise InputError("smith normal form needs univariate entries")
    return [ctx.encode(c) for c in p.univariate_coeffs()]


def _dense_to_poly(ctx, c) -> Poly:
    return Poly(ctx, 1, {(i,): ctx.decode(v) for i, v in enumerate(c)})


@dataclass
class SNFResult:
    ctx: FieldCtx
    shape: tuple[int, int]
    invariant_factors: list          # dense code lists, monic, d_i | d_{i+1}
    U: list                          # nrows x nrows dense-poly matrix
    V: list                          # ncols x ncols dense-poly matrix

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def invariant_factor_polys(self) -> list[Poly]:
        return [_dense_to_poly(self.ctx, c) for c in self.invariant_factors]

    def diagonal(self) -> list:
        nr, nc = self.shape
        out = [[[] for _ in range(nc)] for _ in range(nr)]
        for i, f in enumerate(self.invariant_factors):
            out[i][i] = list(f)
        return out

    def verify(self, original) -> bool:
        """Check U * original * V == diag exactly."""
        ops = self.ctx.ops
        nr, nc = self.shape

        def matmul(a, b, n, m, k):
            out = [[[] for _ in range(k)] for _ in range(n)]
            for i in range(n):
                for j in range(k):
                    acc = []
                    for s in range(m):
                        acc = dpoly.add(ops, acc, dpoly.mul(ops, a[i][s], b[s][j]))
                    out[i][j] = acc
            return out

        ua = matmul(self.U, original, nr, nr, nc)
        uav = matmul(ua, self.V, nr, nc, nc)
        return uav == self.diagonal()


def smith_normal_form(entries, ctx: FieldCtx) -> SNFResult:
    """SNF of a matrix over F_q[t].

    Args:
        entries: rectangular list of lists; each entry a univariate Poly or a
            dense coefficient list of element codes.
        ctx: base field.

    Returns:
        SNFResult with monic invariant factors and transform certificates.
    """
    ops = ctx.ops
    nr = len(entries)
    nc = len(entries[0]) if nr else 0
    A = []
    for row in entries:
        if len(row) != nc:
            raise InputError("ragged matrix")
        A.append([
            _poly_to_dense(ctx, e) if isinstance(e, Poly) else dpoly.trim(ops, list(e))
            for e in row
        ])

    U = [[([ops.one] if i == j else []) for j in range(nr)] for i in range(nr)]
    V = [[([ops.one] if i == j else []) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(nr):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(nc):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    def row_sub(i, j, q):
        # row_i -= q * row_j
        for c in range(nc):
            A[i][c] = dpoly.sub(ops, A[i][c], dpoly.mul(ops, q, A[j][c]))
        for c in range(nr):
            U[i][c] = dpoly.sub(ops, U[i][c], dpoly.mul(ops, q, U[j][c]))

    def col_sub(i, j, q):
        # col_i -= q * col_j
        for r in range(nr):
            A[r][i] = dpoly.sub(ops, A[r][i], dpoly.mul(ops, q, A[r][j]))
        for r in range(nc):
            V[r][i] = dpoly.sub(ops, V[r][i], dpoly.mul(ops, q, V[r][j]))

    def row_add(i, j):
        for c in range(nc):
            A[i][c] = dpoly.add(ops, A[i][c], A[j][c])
        for c in range(nr):
            U[i][c] = dpoly.add(ops, U[i][c], U[j][c])

    def scale_row(i, s):
        for c in range(nc):
            A[i][c] = dpoly.scale(ops, A[i][c], s)
        for c in range(nr):
            U[i][c] = dpoly.scale(ops, U[i][c], s)

    def min_entry(pos):
        best = None
        for i in range(pos, nr):
            for j in range(pos, nc):
                if A[i][j]:
                    d = len(A[i][j])
                    if best is None or d < best[0]:
                        best = (d, i, j)
        return best

    pos = 0
    while pos < min(nr, nc):
        found = min_entry(pos)
        if found is None:
            break
        _, pi, pj = found
        if pi != pos:
            swap_rows(pi, pos)
        if pj != pos:
            swap_cols(pj, pos)

        while True:
            # Clear the pivot column.
            dirty = False
            i = 0
            while i < nr:
                if i != pos and A[i][pos]:
                    q, r = dpoly.divmod_(ops, A[i][pos], A[pos][pos])
                    row_sub(i, pos, q)
                    if r:
                        swap_rows(i, pos)
                        dirty = True
                        break
                i += 1
            if dirty:
                continue
            # Clear the pivot row.
            j = 0
            while j < nc:
                if j != pos and A[pos][j]:
                    q, r = dpoly.divmod_(ops, A[pos][j], A[pos][pos])
                    col_sub(j, pos, q)
                    if r:
                        swap_cols(j, pos)
                        dirty = True
                        break
                j += 1
            if dirty:
                continue
            # Divisibility of the remaining block by the pivot.
            offender = None
            if len(A[pos][pos]) > 1:
                for i in range(pos + 1, nr):
                    for j in range(pos + 1, nc):
                        if A[i][j] and dpoly.rem(ops, A[i][j], A[pos][pos]):
                            offender = i
                            break
                    if offender is not None:
                        break
            if offender is None:
                break
            row_add(pos, offender)
        pos += 1

    factors = []
    for i in range(min(nr, nc)):
        if A[i][i]:
            lead = A[i][i][-1]
            if not ops.is_zero(ops.sub(lead, ops.one)):
                scale_row(i, ops.inv(lead))
            factors.append(A[i][i])
    return SNFResult(ctx, (nr, nc), factors, U, V)
