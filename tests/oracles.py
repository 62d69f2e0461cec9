"""Plain F_q routines that only the tests read: the library's engines no
longer need them, and the tests use them as independent references."""

import itertools

import numpy as np

from kemod import decomp, dpoly, linalg, pencil
from kemod.errors import ConsistencyError, InputError
from kemod.modules import sub_as_module
from kemod.subspace import Subspace


def solve_fp(a, b, F):
    """One solution x of a @ x = b (column sense), or None.  For a 2-d b,
    (X, solvable): column j of X solves a @ x = b[:, j] where solvable[j],
    all from one echelon form of [a | b]; column j is solvable iff it
    vanishes below the rank of a, whatever the other columns of b are."""
    F = linalg.field(F)
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    cols = a.shape[1]
    R, pivots = linalg.rref_fp(np.hstack([a, b.reshape(-1, 1) if b.ndim == 1 else b]), F)
    rank = int(np.searchsorted(pivots, cols))
    X = np.zeros((cols, R.shape[1] - cols), dtype=np.int64)
    X[pivots[:rank]] = R[:rank, cols:]
    solvable = ~R[rank:, cols:].any(axis=0)
    if b.ndim == 2:
        return X, solvable
    return X[:, 0] if solvable[0] else None


def apply_generator(m, i: int, sub: Subspace) -> Subspace:
    """Image of a subspace under X_i."""
    if sub.dim == 0:
        return Subspace.zero(m.ctx, m.dim)
    return Subspace.span(m.ctx, m.dim, linalg.matmul_fp(sub.basis, m.mats[i].T, m.ctx))


def random_combination_loop(F, basis, rng, shape):
    """sum c_f f over the basis with c_f = rng.randrange(q), one F.mul and
    F.add per nonzero coefficient: the loop ``decomp._random_combination``
    replaced by one product."""
    out = np.zeros(shape, dtype=np.int64)
    for f in basis:
        c = rng.randrange(F.q)
        if c:
            out = F.add(out, F.mul(c, f))
    return out


def hom_space_stacked_check(a, b):
    """``decomp.hom_space`` with its intertwining check as 2h stacked
    products over broadcast copies of the generators, one per basis element
    and side: the check that two plain products per generator replaced."""
    F, da, db = a.ctx, a.dim, b.dim
    idb, ida = np.eye(db, dtype=np.int64), np.eye(da, dtype=np.int64)
    blocks = [F.sub(np.kron(idb, xa.T), np.kron(xb, ida)) for xa, xb in zip(a.mats, b.mats)]
    kern = linalg.kernel_fp(np.vstack(blocks), F)
    stack = kern.reshape(len(kern), db, da)
    for xa, xb in zip(a.mats, b.mats):
        lhs = linalg.matmul_fp(stack, np.broadcast_to(xa, (len(stack), da, da)), F)
        rhs = linalg.matmul_fp(np.broadcast_to(xb, (len(stack), db, db)), stack, F)
        if not np.array_equal(lhs, rhs):
            raise AssertionError("hom basis element fails to intertwine")
    return list(stack)


def split_by_rounds(m, rng, rounds):
    """``decomp._split_rec`` by random Fitting elements alone: a block with
    only scalar endomorphisms is certain; any other block splits at the
    first e whose d-th power has a proper kernel, or is kept, uncertain,
    after ``rounds`` failures."""
    d, F = m.dim, m.ctx
    if d == 0:
        return []
    hom = decomp.hom_space(m, m)
    if hom.dim <= 1:
        return [(m, np.eye(d, dtype=np.int64), True)]
    for _ in range(rounds):
        en = linalg.matpow_fp(decomp._random_combination(F, hom.basis, rng, (d, d)), d, F)
        ker = linalg.kernel_fp(en, F)
        if 0 < len(ker) < d:
            out = []
            for sub in (Subspace.span(F, d, ker), Subspace.span(F, d, en.T)):
                mod, rows = sub_as_module(m, sub)
                out += [(s, linalg.matmul_fp(srows, rows, F), c) for s, srows, c in split_by_rounds(mod, rng, rounds)]
            return out
    return [(m, np.eye(d, dtype=np.int64), False)]


def _reduce_two_eliminations(sub, rows):
    """Rows reduced mod sub's echelon basis, as ``linalg.reduce_rows_fp`` did."""
    F = sub.ctx
    if sub.dim == 0 or rows.size == 0:
        return F.canon(rows)
    return F.sub(rows, F.matmul(rows[:, list(sub.pivots)], sub.basis))


def perp_two_eliminations(sub):
    """``Subspace.perp`` as a ``kernel_fp`` of the basis and a second
    elimination of its rows: the route ``Subspace.kernel`` replaced."""
    if sub.dim == 0:
        return Subspace.full(sub.ctx, sub.ambient)
    return Subspace.span(sub.ctx, sub.ambient, linalg.kernel_fp(sub.basis, sub.ctx))


def complement_two_eliminations(small, bigger):
    """``small.complement_in(bigger).basis``, eliminated even when small is 0."""
    return Subspace.span(small.ctx, small.ambient, _reduce_two_eliminations(small, bigger.basis)).basis


def subquotient_with_lift_two_eliminations(m, top, bottom):
    """``modules.subquotient_with_lift`` for invariant bottom <= top, with the
    complement's pivots read off a second elimination of it."""
    comp = complement_two_eliminations(bottom, top)
    pivots = list(Subspace.span(m.ctx, m.dim, comp).pivots)
    mats = [
        _reduce_two_eliminations(bottom, linalg.matmul_fp(comp, x.T, m.ctx))[:, pivots].T for x in m.mats
    ]
    return mats, comp


def array_per_entry(F, a, ndim: int = 2):
    """``FieldCtx.array`` with every coefficient list read by its own
    ``F.encode`` call in a recursion over the nesting: the path that the
    one-pass reading of uniform coefficient lists replaced."""
    if isinstance(a, (list, tuple)) and a and isinstance(a[0], np.ndarray):
        a = np.asarray(a)
    if isinstance(a, np.ndarray) and a.dtype != object:
        a = a.astype(np.int64, copy=False)
        if F.k == 1:
            return a % F.p
        if a.size and (a.min() < 0 or a.max() >= F.q):
            raise InputError(f"element codes must lie in [0, {F.q})")
        return a
    if isinstance(a, np.ndarray):
        a = a.tolist()
    try:
        arr = np.asarray(a)
        if arr.ndim == ndim and arr.dtype.kind in "ib":
            return arr.astype(np.int64) % F.p
    except ValueError:  # ragged
        pass
    if ndim == 0:
        return np.int64(F.encode(a))
    if not isinstance(a, (list, tuple)):
        raise InputError(f"expected a sequence of rows, got {a!r}")
    rows = [array_per_entry(F, x, ndim - 1) for x in a]
    if not rows:
        return np.zeros((0,) * ndim, dtype=np.int64)
    if len({x.shape for x in rows}) > 1:
        raise InputError("ragged nesting: entries of different lengths")
    return np.array(rows, dtype=np.int64)


def matmul_schoolbook(F, a, b):
    """Slice by slice a @ b over F_q as sum_t a[..., :, t] * b[..., t, :],
    one ``F.mul`` and one ``F.add`` per term of the inner dimension."""
    out = np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1]), dtype=np.int64)
    for t in range(a.shape[-1]):
        out = F.add(out, F.mul(a[..., :, t, None], b[..., None, t, :]))
    return out


def pm_pow(a, e, F):
    """a^e of a polynomial matrix by ``dpoly.power`` of ``pencil.pm_mul``
    products, as ``linalg.matpow_fp``: no product by the identity and no
    squaring past the highest bit of e.  The route that the binomial
    expansion of ``KEModule.power_pencil`` over the table of generator
    powers replaced."""
    F = linalg.field(F)
    one = np.eye(a.shape[0], dtype=np.int64)[:, :, None]
    return dpoly.power(pencil.pm_trim(F.canon(a)).copy(), e, lambda x, y: pencil.pm_mul(x, y, F), one)


def sweep_minimal_basis(c, shifts, F, count, check):
    """``pencil._minimal_basis`` as a grown echelon form: the whole
    linearization up to a top level in one ``rref_fp``, the top raised by
    half and the matrix eliminated again from scratch each time the sweep
    passes it.  The generators of level k are the kernel vectors of the free
    unknowns (k, m) with (k - 1, m) not free: 1 there and -R[i, u] at the
    pivot of row i.  The route that the one pass over the unknowns
    replaced, with the same cap, count, check and errors."""
    rows, cols, d1 = c.shape
    if count == 0:
        return []
    F = linalg.field(F)
    lo = -int(shifts.max(initial=0))
    cap = (d1 - 1) * max(1, rows) + rows + cols + 5 - lo
    gens = []  # (level index, coefficients)
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
            R, piv = linalg.rref_fp(pencil._constraints(c, lo + lev + shifts[row], row), F)
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
