"""Smith normal form over F_q[t]: the invariant factors.

Classic pivoting algorithm: bring the minimum-degree entry to the pivot,
clear its row and column by Euclidean division, restart whenever a
remainder drops the pivot degree, and enforce the divisibility chain by
folding offending rows into the pivot row.  Only the invariant factors are
returned, monic; the unimodular transforms are not recorded.  Dense
polynomials hold element codes (see ``gf.FieldCtx``) for every F_q.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dpoly
from .errors import InputError
from .gf import FieldCtx


@dataclass
class SNFResult:
    invariant_factors: list          # dense code lists, monic, d_i | d_{i+1}

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def smith_normal_form(entries, ctx: FieldCtx) -> SNFResult:
    """SNF of a matrix over F_q[t].

    Args:
        entries: rectangular list of lists; each entry a dense coefficient
            list of element codes, constant term first.
        ctx: base field.

    Returns:
        SNFResult with the monic invariant factors.
    """
    ops = ctx.ops
    nr = len(entries)
    nc = len(entries[0]) if nr else 0
    A = []
    for row in entries:
        if len(row) != nc:
            raise InputError("ragged matrix")
        A.append([dpoly.trim(ops, list(e)) for e in row])

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]

    def swap_cols(i, j):
        for r in range(nr):
            A[r][i], A[r][j] = A[r][j], A[r][i]

    def row_sub(i, j, q):
        # row_i -= q * row_j
        for c in range(nc):
            A[i][c] = dpoly.sub(ops, A[i][c], dpoly.mul(ops, q, A[j][c]))

    def col_sub(i, j, q):
        # col_i -= q * col_j
        for r in range(nr):
            A[r][i] = dpoly.sub(ops, A[r][i], dpoly.mul(ops, q, A[r][j]))

    def row_add(i, j):
        for c in range(nc):
            A[i][c] = dpoly.add(ops, A[i][c], A[j][c])

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
        f = A[i][i]
        if f:
            lead = f[-1]
            if not ops.is_zero(ops.sub(lead, ops.one)):
                f = dpoly.scale(ops, f, ops.inv(lead))
            factors.append(f)
    return SNFResult(factors)
