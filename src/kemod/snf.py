"""Smith normal form over F_q[t]: the invariant factors.

The matrix is one int64 array of element codes of shape (rows, cols,
deg+1), the ``pencil.Pm`` layout: slab [:, :, e] is the coefficient of t^e.
Every arithmetic step is a batched ``FieldCtx`` array op, so one path
serves every F_q.

Pivot rule: the lowest-degree nonzero entry of the remaining block, the
first one in row-major order, moved to the corner.  The choice is made anew
after every reduction that leaves a nonzero remainder.

* A constant pivot clears its row and column in one Schur update of the
  rows and columns that meet it (a polynomial outer product, convolved along
  the degree axis); its row and column then leave the block.
* A non-constant pivot g first divides its whole column by g (one batched
  long division) and subtracts quotient x pivot row from those rows.  Once
  the column is clear, the column operations change only the pivot row,
  which becomes its remainders mod g.  Last, every entry of the trailing
  block must be divisible by g; the first row that is not is folded into the
  pivot row, which again becomes its remainders.  Any nonzero remainder
  sends the loop back to the pivot choice.

Termination: a nonzero remainder has degree below that of g, the block's
minimum degree, so each restart strictly lowers that minimum; a constant
pivot never restarts, and each finished pivot removes a row and a column.
Re-choosing over the whole block after every remainder is what keeps the
degrees of dense inputs small (Kannan and Bachem, SIAM J. Comput. 8, 1979,
on entry growth).  The degree axis is trimmed to the block's top degree
before each choice, and a zero block ends at once.

Unit peel, once before the pivot loop: a row whose only nonzero entry is
a nonzero constant is struck with that entry's column, and so is a column
whose only nonzero entry is one.  Exact: clearing the partner line with the
struck one changes no other entry, so A ~ 1 (+) (A without the two lines).
The peel follows the chains of such lines that strikes leave in one pass
over the nonzeros (the singleton pass of ``linalg._rref_sparse``) and cuts
out the rest with one index operation.  Pencils of basis-aligned modules
lose their whole rank this way; input with no line of one nonzero entry,
as a dense one, costs one vectorized check.

Only the invariant factors are returned, monic, d_i | d_{i+1}; the
unimodular transforms are not recorded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        entries: a sequence of rows, each either a list of dense
            coefficient lists of element codes (constant term first) or an
            int64 array of codes of shape (cols, deg+1).
        ctx: base field.

    Returns:
        SNFResult with the monic invariant factors.
    """
    nc = len(entries[0]) if len(entries) else 0
    if any(len(row) != nc for row in entries):
        raise InputError("ragged matrix")
    rows = [row if isinstance(row, np.ndarray) else _row_array(row, nc) for row in entries]
    D = max((row.shape[1] for row in rows), default=1)
    A = np.array([row if row.shape[1] == D else np.pad(row, ((0, 0), (0, D - row.shape[1]))) for row in rows],
                 dtype=np.int64)
    if not A.any():
        return SNFResult([])
    A, struck = _strike_units(ctx.canon(A))

    factors = [[1] for _ in range(struck)]
    while A.shape[0] and A.shape[1]:
        nz = A != 0
        size = nz[:, :, 0].astype(np.int64)  # degree + 1, 0 for zero
        for e in range(1, A.shape[2]):
            size[nz[:, :, e]] = e + 1
        i, j = divmod(int(np.where(size, size, A.shape[2] + 1).argmin()), A.shape[1])
        d = int(size[i, j]) - 1
        if d < 0:
            break
        A = A[:, :, : size.max()]
        if i:
            A[0], A[i] = A[i], A[0].copy()
        if j:
            A[:, 0], A[:, j] = A[:, j], A[:, 0].copy()
        if A[0, 0, d] != 1:
            A[0] = ctx.mul(A[0], ctx.inv(A[0, 0, d]))  # a monic pivot g
        g = A[0, 0, : d + 1].copy()
        if d == 0:
            A = _sub_outer(A[1:, 1:], A[1:, 0], A[0, 1:], ctx)
            factors.append([1])
            continue
        # clear the pivot column: rows -= (their quotient by g) * pivot row
        col = A[:, 0].copy()
        col[0] = 0
        A = _sub_outer(A, _reduce(col, g, ctx), A[0], ctx)
        if col.any():
            continue
        # the column is clear, so the column operations touch the pivot row only
        _reduce(A[0, 1:], g, ctx)
        if A[0, 1:].any():
            continue
        # divisibility of the trailing block: fold the first offending row in
        rest = A[1:, 1:]
        rem = rest.copy()
        _reduce(rem.reshape(-1, rem.shape[2]), g, ctx)
        bad = rem.any(axis=(1, 2))
        if bad.any():
            A[0, 1:] = rem[bad.argmax()]
            continue
        factors.append(g.tolist())
        A = rest
    return SNFResult(factors)


def _strike_units(A: np.ndarray) -> tuple[np.ndarray, int]:
    """(A without its struck lines, the number of strikes): the unit peel."""
    nz = A.any(axis=2)
    count = (nz.sum(axis=1).tolist(), nz.sum(axis=0).tolist())  # nonzeros per row, per column
    if 1 not in count[0] and 1 not in count[1]:
        return A, 0
    r, c = nz.nonzero()
    lines = ([[] for _ in count[0]], [[] for _ in count[1]])  # each line's nonzeros: (other index, constant?)
    for i, j, u in zip(r.tolist(), c.tolist(), (~A[r, c, 1:].any(axis=1)).tolist()):
        lines[0][i].append((j, u))
        lines[1][j].append((i, u))
    live = ([True] * len(count[0]), [True] * len(count[1]))
    todo = [(ax, k) for ax in (0, 1) for k, n in enumerate(count[ax]) if n == 1]
    struck = 0
    while todo:
        ax, k = todo.pop()
        if not live[ax][k] or count[ax][k] != 1:
            continue
        other = live[1 - ax]
        x, u = next(e for e in lines[ax][k] if other[e[0]])
        if not u:
            continue
        live[ax][k] = other[x] = False
        struck += 1
        for y, _ in lines[1 - ax][x]:  # line k met no other live line; its partner x did
            if live[ax][y]:
                count[ax][y] -= 1
                if count[ax][y] == 1:
                    todo.append((ax, y))
    return A[np.ix_(np.flatnonzero(live[0]), np.flatnonzero(live[1]))], struck


def _row_array(row, nc: int) -> np.ndarray:
    """One row of coefficient lists as a (cols, deg+1) code array."""
    out = np.zeros((nc, max(map(len, row), default=0) or 1), dtype=np.int64)
    for b, e in enumerate(row):
        out[b, : len(e)] = e
    return out


def _reduce(r: np.ndarray, g: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Reduce the rows of r (n, D) in place to their remainders by the monic
    g of degree d, by one batched long division; returns the quotients
    (n, D - d)."""
    d, D = len(g) - 1, r.shape[1]
    q = np.zeros((r.shape[0], max(D - d, 0)), dtype=np.int64)
    for e in range(D - 1, d - 1, -1):
        lead = r[:, e]
        if lead.any():
            q[:, e - d] = lead
            r[:, e - d : e + 1] = ctx.sub_mul(r[:, e - d : e + 1], lead[:, None], g)
    return q


def _sub_outer(B: np.ndarray, q: np.ndarray, p: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """B - q (x) p for B (n, m, D), q (n, dq) and p (m, dp): the outer product
    of two vectors of polynomials, convolved along the degree axis.  Only the
    rows where q is nonzero and the columns where p is nonzero change; B is
    updated in place unless the product needs a longer degree axis."""
    qz, pz = q != 0, p != 0
    rows, cols = qz.any(axis=1).nonzero()[0], pz.any(axis=1).nonzero()[0]
    if not (rows.size and cols.size):
        return B
    dq = q.shape[1] - qz.any(axis=0)[::-1].argmax()
    dp = p.shape[1] - pz.any(axis=0)[::-1].argmax()
    q, p = q[rows, :dq], p[cols, :dp]
    top = dq + dp - 1
    if top > B.shape[2]:
        B = np.concatenate([B, np.zeros(B.shape[:2] + (top - B.shape[2],), dtype=np.int64)], axis=2)
    ix = (rows[:, None], cols[None, :], slice(0, top))
    blk = B[ix]
    if dq <= dp:
        for a in range(dq):
            blk[:, :, a : a + dp] = ctx.sub_mul(blk[:, :, a : a + dp], q[:, None, a, None], p[None])
    else:
        for b in range(dp):
            blk[:, :, b : b + dq] = ctx.sub_mul(blk[:, :, b : b + dq], q[:, None, :], p[None, :, b, None])
    B[ix] = blk
    return B
