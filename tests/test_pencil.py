"""The pencil engine against the engines it replaced.

The row-at-a-time oracles select kernel generators one candidate row at a
time, re-echelonizing after each one; the library selects each degree's new
generators in one batch.  Both must find the same minimal indices, and their
generators must span the same module.  The from-scratch oracle takes each
degree's kernel from its whole linearization and keeps the kernel vectors
of the unknowns that became free at that degree; the library reads them
off one echelon form up to a top degree, and its generators must be the
same arrays.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kemod as K
from kemod import linalg, pencil
from kemod.errors import ConsistencyError, MathRefusal
from kemod.generate import mixed_family
from kemod.gf import FieldCtx
from kemod.modules import generic_power_ranks, random_invertible
from kemod.pencil import GradedGen
from oracles import solve_fp
from symbolic import Poly, RationalFunction, rank_gen

# -- oracles: one generator at a time ----------------------------------------------


def linearize(a, vdeg):
    """Matrix of v(t) -> a(t) v(t) on coefficient vectors of deg <= vdeg."""
    rows, cols, d1 = a.shape
    out = np.zeros(((vdeg + d1) * rows, (vdeg + 1) * cols), dtype=np.int64)
    for e in range(vdeg + 1):
        for i in range(d1):
            out[(e + i) * rows : (e + i + 1) * rows, e * cols : (e + 1) * cols] = a[:, :, i]
    return out


def _flatten_shift(g, shift, vdeg, cols):
    v = np.zeros((vdeg + 1) * cols, dtype=np.int64)
    for e in range(g.deg + 1):
        v[(e + shift) * cols : (e + shift + 1) * cols] = g.coeffs[:, e]
    return v


def kernel_slice_dim(gens, n):
    """The dimension of the degree-n slice that the shifts of gens span."""
    return sum(max(0, n - g.deg + 1) for g in gens)


def shift_rows(gens, n, cols):
    """Rows t^e g for every generator g and e = 0..n - deg g, flattened in
    the deg-<=n layout (coefficient of t^e in block e), one Python loop per
    shift: the dense form of the shift blocks that the engine builds as
    triplets."""
    out = np.zeros((kernel_slice_dim(gens, n), (n + 1) * cols), dtype=np.int64)
    i = 0
    for g in gens:
        flat = g.coeffs.T.reshape(-1)
        for e in range(n - g.deg + 1):
            out[i, e * cols : e * cols + flat.size] = flat
            i += 1
    return out


def oracle_graded_kernel_basis(a, F, kappa):
    rows, cols, d1 = a.shape
    if kappa == 0:
        return []
    degcap = (d1 - 1) * max(1, cols - kappa) + cols + 1
    gens = []
    for delta in range(degcap + 1):
        K_ = linalg.kernel_fp(linearize(a, delta), F)
        if K_.shape[0] == 0:
            continue
        old = [_flatten_shift(g, e, delta, cols) for g in gens for e in range(delta - g.deg + 1)]
        if old:
            ech, piv = linalg.rref_fp(np.array(old), F)
            ech = ech[: len(piv)]
        else:
            ech, piv = np.zeros((0, (delta + 1) * cols), dtype=np.int64), []
        for row in K_:
            res = F.sub(row, F.matmul(row[None, piv], ech)[0]) if len(piv) else row
            if not res.any():
                continue
            coeffs = res.reshape(delta + 1, cols).T.copy()
            if not coeffs[:, delta].any():
                raise ConsistencyError("minimal kernel generator without top coefficient")
            gens.append(GradedGen(coeffs, delta))
            stacked = np.vstack([ech, res[None, :]]) if ech.size else res[None, :]
            ech, piv = linalg.rref_fp(stacked, F)
            ech = ech[: len(piv)]
            if len(gens) == kappa:
                return gens
    raise ConsistencyError("oracle kernel basis incomplete")


def oracle_shifted_left_kernel(c, rowshifts, F, count):
    rows, cols, d1 = c.shape
    if count == 0:
        return []
    smax = max(rowshifts) if rowshifts else 0
    degcap = (d1 - 1) * max(1, rows) + smax + cols + 5
    gens = []

    def psi_flatten(per_row, shift, n):
        segs = []
        for m in range(rows):
            seg = np.zeros(max(0, n + rowshifts[m] + 1), dtype=np.int64)
            if per_row[m].size:
                seg[shift : shift + per_row[m].size] = per_row[m]
            segs.append(seg)
        return np.concatenate(segs) if segs else np.zeros(0, dtype=np.int64)

    def constraint_matrix(n):
        lens = [max(0, n + rowshifts[m] + 1) for m in range(rows)]
        total = sum(lens)
        if total == 0:
            return None, lens
        if cols == 0:
            return np.zeros((0, total), dtype=np.int64), lens
        outdeg = n + smax + d1
        blocks = []
        for j in range(cols):
            block = np.zeros((outdeg + 1, total), dtype=np.int64)
            off = 0
            for m in range(rows):
                for e in range(lens[m]):
                    hi = min(d1, outdeg + 1 - e)
                    block[e : e + hi, off + e] = c[m, j][:hi]
                off += lens[m]
            blocks.append(block)
        return np.vstack(blocks), lens

    for n in range(-smax, degcap + 1):
        M, lens = constraint_matrix(n)
        if M is None:
            continue
        K_ = linalg.kernel_fp(M, F)
        old = [psi_flatten(per_row, e, n) for n0, per_row in gens for e in range(n - n0 + 1)]
        if old:
            ech, piv = linalg.rref_fp(np.array(old), F)
            ech = ech[: len(piv)]
        else:
            ech, piv = np.zeros((0, M.shape[1]), dtype=np.int64), []
        for row in K_:
            res = F.sub(row, F.matmul(row[None, piv], ech)[0]) if len(piv) else row
            if not res.any():
                continue
            bounds = np.cumsum([0] + lens)
            gens.append((n, [res[bounds[m] : bounds[m + 1]].copy() for m in range(rows)]))
            stacked = np.vstack([ech, res[None, :]]) if ech.size else res[None, :]
            ech, piv = linalg.rref_fp(stacked, F)
            ech = ech[: len(piv)]
            if len(gens) == count:
                return sorted(g[0] for g in gens)
    raise ConsistencyError("oracle left kernel incomplete")


def oracle_scratch_graded_kernel_basis(a, F, kappa):
    """For each degree delta, the rows of kernel_fp(linearize(a, delta))
    whose free column lies in block delta and was not free in block
    delta - 1 (a kernel_fp row ends on its free column, with a 1)."""
    rows, cols, d1 = a.shape
    if kappa == 0:
        return []
    degcap = (d1 - 1) * max(1, cols - kappa) + cols + 1
    gens, was_free = [], np.zeros(cols, dtype=bool)
    for delta in range(degcap + 1):
        K_ = linalg.kernel_fp(linearize(a, delta), F)
        last = K_.shape[1] - 1 - (K_[:, ::-1] != 0).argmax(axis=1)
        block = last[last >= delta * cols] - delta * cols
        for res in K_[last >= delta * cols][~was_free[block]]:
            gens.append(GradedGen(res.reshape(delta + 1, cols).T.copy(), delta))
        was_free = np.zeros(cols, dtype=bool)
        was_free[block] = True
        if len(gens) >= kappa:
            return gens
    raise ConsistencyError("oracle kernel basis incomplete")


# -- inputs --------------------------------------------------------------------------


def _disguise(m, rng):
    """X_i -> P X_i P^-1, then a random invertible change of coordinates."""
    P = random_invertible(m.ctx, m.dim, rng)
    Pinv = linalg.inv_fp(P, m.ctx)
    mats = [linalg.matmul_fp(linalg.matmul_fp(P, x, m.ctx), Pinv, m.ctx) for x in m.mats]
    return K.restrict(K.KEModule(m.ctx, 2, mats), random_invertible(m.ctx, 2, rng))


def _disguised_w_sums(rng):
    mods = []
    for parts in [[(3, 3), (3, 2)], [(4, 2), (2, 1)], [(3, 2), (2, 2)]]:
        a, b = (K.w_module(3, n, d) for n, d in parts)
        mods += [_disguise(K.direct_sum(a, b), rng), _disguise(K.direct_sum(a, K.dual(b)), rng)]
    return mods


def _w_over_f4_and_f9():
    return [K.w_module(FieldCtx(2, 2), n, d) for n, d in [(2, 2), (3, 2), (4, 2)]] + [
        K.w_module(FieldCtx(3, 2), n, d) for n, d in [(2, 2), (3, 3), (4, 2)]
    ]


def _family():
    mods = [K.w_module(p, n, d) for p in (2, 3, 5) for n in range(1, 5) for d in range(1, min(n, p) + 1)]
    mods += [mem.module for mem in mixed_family(12, seed=5, max_dim=12)]
    return mods + _disguised_w_sums(random.Random(3)) + _w_over_f4_and_f9()


def _w_grid_and_mixed():
    rng = random.Random(11)
    grid = [K.w_module(p, n, d) for p in (2, 3, 5) for n in range(1, 6) for d in range(1, min(n, p) + 1)]
    return grid + [_disguise(m, rng) for m in grid] + [mem.module for mem in mixed_family(12, seed=5, max_dim=12)]


def _solvable(gens, targets, F, dim):
    """Every target in the span of gens, each solved at its own degree."""
    return all(pencil.solve_in_basis(gens, pencil.pm_columns([t], dim), t.deg, F)[1].all() for t in targets)


# -- tests ---------------------------------------------------------------------------


def test_batched_kernel_basis_matches_oracle():
    for m in _family():
        F = m.ctx
        for ell in range(1, F.p + 1):
            a = m.power_pencil(ell)
            kappa = m.dim - generic_power_ranks(m, ell)[-1]
            new = pencil.graded_kernel_basis(a, F, kappa)
            old = oracle_graded_kernel_basis(a, F, kappa)
            assert sorted(g.deg for g in new) == sorted(g.deg for g in old), (m, ell)
            assert _solvable(new, old, F, m.dim) and _solvable(old, new, F, m.dim), (m, ell)


def test_batched_left_kernel_matches_oracle(monkeypatch):
    calls = []
    real = pencil.shifted_left_kernel

    def record(c, rowshifts, F, count):
        calls.append((c, list(rowshifts), F, count))
        return real(c, rowshifts, F, count)

    monkeypatch.setattr(pencil, "shifted_left_kernel", record)
    for m in _family():
        for i in range(1, m.ctx.p + 1):
            K.splitting_type(m, i)
    assert len(calls) > 40
    for c, rowshifts, F, count in calls:
        assert real(c, rowshifts, F, count) == oracle_shifted_left_kernel(c, rowshifts, F, count)


def _rank_over_rational_functions(F, c):
    """The rank of c over F_q(t), by symbolic elimination."""
    rows, cols, _ = c.shape
    if not rows or not cols:
        return 0
    entry = lambda codes: RationalFunction.from_poly(Poly.from_univariate(F, [F.decode(e) for e in codes]))
    entries = [[entry(c[m, j]) for j in range(cols)] for m in range(rows)]
    return rank_gen(entries, RationalFunction.const(F, 1, 0))


def _random_pencil(F, data):
    """A random polynomial matrix of degree <= 3, some rows and columns zero,
    random row shifts, and its corank over F_q(t)."""
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    rows, cols, deg = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5)), data.draw(st.integers(0, 3))
    density = data.draw(st.sampled_from([0.2, 0.5, 1.0]))
    c = np.array(
        [F.random_code(rng) if rng.random() < density else 0 for _ in range(rows * cols * (deg + 1))],
        dtype=np.int64,
    ).reshape(rows, cols, deg + 1)
    c[data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))] = 0
    c[:, data.draw(st.lists(st.booleans(), min_size=cols, max_size=cols))] = 0
    shifts = data.draw(st.lists(st.integers(0, 3), min_size=rows, max_size=rows))
    return c, shifts, rows - _rank_over_rational_functions(F, c)


FIELDS = [FieldCtx(2), FieldCtx(3), FieldCtx(5), FieldCtx(2, 2), FieldCtx(3, 2)]


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"F{F.q}")
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sweep_matches_oracles_on_random_pencils(F, data):
    """Random pencils: the left-kernel indices equal the row-at-a-time
    oracle's, and with zero shifts the right kernel of the transpose is the
    from-scratch oracle's, byte for byte; the count is the corank over F_q(t)."""
    c, shifts, count = _random_pencil(F, data)
    assert pencil.shifted_left_kernel(c, shifts, F, count) == oracle_shifted_left_kernel(c, shifts, F, count)
    a = c.transpose(1, 0, 2)
    new = pencil.graded_kernel_basis(a, F, count)
    old = oracle_scratch_graded_kernel_basis(a, F, count)
    assert [(g.deg, g.coeffs.dtype, g.coeffs.tolist()) for g in new] == [
        (g.deg, g.coeffs.dtype, g.coeffs.tolist()) for g in old
    ]


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"F{F.q}")
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sweep_generators_are_in_popov_form(F, data):
    """Random pencils with row shifts: every generator psi of the sweep has
    psi * c = 0 and a 1 at its last unknown, which lies at its own degree,
    in a row where no other generator ends; and no other generator has a
    coefficient in that row from that degree on."""
    c, shifts, count = _random_pencil(F, data)
    s = np.array(shifts, dtype=np.int64)
    gens = pencil._minimal_basis(c, s, F, count, 2)
    assert len(gens) == count
    lo = -int(s.max(initial=0))
    # the level index and row of each unknown up to shifted degree n, level-major
    layout = lambda n: np.nonzero(s[None, :] + np.arange(lo, n + 1)[:, None] >= 0)
    ends = []
    for n, vec in gens:
        lev, row = layout(n)
        assert vec.shape == row.shape
        psi = np.zeros((1, c.shape[0], n - lo + 1), dtype=np.int64)
        psi[0, row, lev + lo + s[row]] = vec  # the coefficient of t^(level + shift)
        assert not pencil.pm_mul(psi, c, F).any()
        u = vec.nonzero()[0][-1]
        assert vec[u] == 1 and lo + lev[u] == n
        ends.append((n, row[u]))
    assert len({m for _, m in ends}) == len(ends)
    for j, (n, vec) in enumerate(gens):
        lev, row = layout(n)
        for i, (ni, m) in enumerate(ends):
            assert i == j or not vec[(row == m) & (lo + lev >= ni)].any()


def test_zero_shift_constraints_are_the_linearization():
    a = K.direct_sum(K.w_module(3, 4, 2), K.dual(K.w_module(3, 3, 3))).power_pencil(2)
    cols = a.shape[1]
    for top in range(4):
        level, row = np.divmod(np.arange((top + 1) * cols), cols)
        M = pencil._constraints(a.transpose(1, 0, 2), level, row)
        assert isinstance(M, linalg.Coo) and np.all(np.diff(M.row) >= 0)
        assert np.array_equal(M.dense(), linearize(a, top))


def test_sweeps_refuse_a_wrong_count(monkeypatch):
    # the pencil of W_{4,2} + W_{2,2} over F_3 has a kernel of rank 6 with
    # minimal indices 0, 0, 0, 0, 1, 3; a count one too high finds no last
    # generator, one too low finds one too many or a slice larger than predicted
    m = K.direct_sum(K.w_module(3, 4, 2), K.w_module(3, 2, 2))
    F, a = m.ctx, m.power_pencil(1)
    assert [g.deg for g in pencil.graded_kernel_basis(a, F, 6)] == [0, 0, 0, 0, 1, 3]
    with pytest.raises(ConsistencyError, match="incomplete"):
        pencil.graded_kernel_basis(a, F, 7)
    calls = []
    real = pencil.shifted_left_kernel
    monkeypatch.setattr(pencil, "shifted_left_kernel", lambda *x: calls.append(x) or real(*x))
    for i in range(1, 4):
        K.splitting_type(m, i)
    assert len(calls) == 2
    for c, rowshifts, F, count in calls:
        with pytest.raises(ConsistencyError, match="generators for|predicted"):
            real(c, rowshifts, F, count - 1)
        with pytest.raises(ConsistencyError, match="incomplete"):
            real(c, rowshifts, F, count + 1)


def _combine(F, basis, coeffs, d, tdeg):
    """sum c_m(t) N_m(t) as a (d, tdeg + 1) coefficient array."""
    out = np.zeros((d, tdeg + 1), dtype=np.int64)
    for g, cm in zip(basis, coeffs):
        for e, c in enumerate(cm):
            out[:, e : e + g.deg + 1] = F.add(out[:, e : e + g.deg + 1], F.mul(g.coeffs, int(c)))
    return out


def test_solve_in_basis_many_targets_of_one_degree():
    rng = random.Random(8)
    m = _disguise(K.direct_sum(K.w_module(3, 4, 2), K.w_module(3, 3, 3)), rng)
    F, d = m.ctx, m.dim
    basis = m.kernel_generators(2)
    tdeg = max(g.deg for g in basis) + 1
    sizes = [tdeg - g.deg + 1 for g in basis]
    inside = [
        _combine(F, basis, [[F.random_code(rng) for _ in range(s)] for s in sizes], d, tdeg)
        for _ in range(4)
    ]
    outside = np.zeros((d, tdeg + 1), dtype=np.int64)
    outside[:, 0] = 1  # a constant vector that (X_1 + t X_2)^2 does not kill
    assert pencil.solve_in_basis(basis, outside[:, None, :], tdeg, F)[1].tolist() == [False]
    targets = inside[:2] + [outside] + inside[2:]
    C, solvable = pencil.solve_in_basis(basis, np.stack(targets, axis=1), tdeg, F)
    assert solvable.tolist() == [True, True, False, True, True]
    assert C.shape == (len(basis), len(targets), max(sizes))
    for j, t in zip([0, 1, 3, 4], inside):
        sol = [C[k, j, :size] for k, size in enumerate(sizes)]
        assert not any(C[k, j, size:].any() for k, size in enumerate(sizes))
        assert np.array_equal(_combine(F, basis, sol, d, tdeg), t)
        single, ok = pencil.solve_in_basis(basis, t[:, None, :], tdeg, F)
        assert ok.tolist() == [True] and np.array_equal(single[:, 0], C[:, j])


def test_solve_in_basis_without_generators():
    zero = np.zeros((2, 1), dtype=np.int64)
    one = np.ones((2, 1), dtype=np.int64)
    C, solvable = pencil.solve_in_basis([], np.stack([zero, one], axis=1), 0, 3)
    assert C.shape == (0, 2, 1) and solvable.tolist() == [True, False]


def oracle_pencil_coefficients(m, i):
    """The coefficient array C of the i-th splitting as the engine built it
    before one solve did: the targets grouped by degree, one solve per
    degree against the shifts up to it, each solution cut into one slice
    per generator and copied back slice by slice."""
    F, d = m.ctx, m.dim
    basis = m.kernel_generators(i)
    targets = [(w.coeffs, w.deg) for w in m.kernel_generators(i - 1)]
    for w in m.kernel_generators(i + 1):
        targets.append((pencil.pm_mul(m.pencil(), w.coeffs[:, None, :], F)[:, 0, :], w.deg + 1))
    coords = [None] * len(targets)
    for tdeg in sorted({t for _, t in targets}):
        idx = [k for k, (_, t) in enumerate(targets) if t == tdeg]
        B = np.zeros(((tdeg + 1) * d, len(idx)), dtype=np.int64)
        for j, k in enumerate(idx):
            B[: targets[k][0].size, j] = targets[k][0].T.reshape(-1)
        X, solvable = solve_fp(shift_rows(basis, tdeg, d).T, B, F)
        assert solvable.all()
        sizes = [max(0, tdeg - g.deg + 1) for g in basis]
        starts = np.cumsum([0] + sizes)
        for j, k in enumerate(idx):
            coords[k] = [X[s : s + size, j] for s, size in zip(starts, sizes)]
    maxdeg = max([0] + [arr.size - 1 for col in coords for arr in col])
    C = np.zeros((len(basis), len(coords), maxdeg + 1), dtype=np.int64)
    for cj, col in enumerate(coords):
        for rj, arr in enumerate(col):
            C[rj, cj, : arr.size] = arr
    return C


def test_one_solve_gives_the_per_degree_coefficients(monkeypatch):
    """The C that each splitting hands to shifted_left_kernel, solved at the
    top degree in one elimination, is the per-degree oracle's, byte for byte:
    the W grid, disguised W modules and W sums, mixed_family members, and W
    over F_4 and F_9."""
    calls = []
    real = pencil.shifted_left_kernel
    monkeypatch.setattr(pencil, "shifted_left_kernel", lambda c, *x: calls.append(c) or real(c, *x))
    mods = _w_grid_and_mixed() + _disguised_w_sums(random.Random(4)) + _w_over_f4_and_f9()
    checked = 0
    for m in mods:
        for i in range(1, m.ctx.p + 1):
            calls.clear()
            try:
                K.splitting_type(m, i)
            except MathRefusal:
                break
            for c in calls:  # none when the bundle has rank 0
                want = oracle_pencil_coefficients(m, i)
                assert c.dtype == want.dtype and c.shape == want.shape and np.array_equal(c, want), (m, i)
                checked += 1
    assert checked > 150


@pytest.mark.parametrize("which, i", [("lower kernel generator", 2), ("pencil image", 1)])
def test_a_target_outside_the_kernel_basis_is_refused(monkeypatch, which, i):
    """A lower kernel generator that the i-th power does not kill, or a
    generator of power i + 1 whose pencil image it does not kill, is refused."""
    m = K.direct_sum(K.w_module(3, 4, 2), K.w_module(3, 3, 3))
    power = m.power_pencil(i + (which == "pencil image"))
    v = next(v for v in np.eye(m.dim, dtype=np.int64) if pencil.pm_mul(power, v[:, None, None], m.ctx).any())
    fake, ell = [GradedGen(v[:, None], 0)], i - 1 if which == "lower kernel generator" else i + 1
    real = K.KEModule.kernel_generators
    monkeypatch.setattr(K.KEModule, "kernel_generators", lambda self, e: fake if e == ell else real(self, e))
    with pytest.raises(ConsistencyError, match=f"^{which} outside the kernel basis$"):
        K.splitting_type(m, i)


def test_prefix_echelon_generators_equal_the_from_scratch_engine():
    for m in _w_grid_and_mixed():
        F = m.ctx
        for ell in range(1, F.p + 1):
            a = m.power_pencil(ell)
            kappa = m.dim - generic_power_ranks(m, ell)[-1]
            new = pencil.graded_kernel_basis(a, F, kappa)
            old = oracle_scratch_graded_kernel_basis(a, F, kappa)
            assert [(g.deg, g.coeffs.dtype, g.coeffs.tolist()) for g in new] == [
                (g.deg, g.coeffs.dtype, g.coeffs.tolist()) for g in old
            ], (m, ell)


def test_pm_pow_from_the_lowest_set_bit(monkeypatch):
    F = FieldCtx(5)
    a = K.w_module(F, 5, 4).pencil()
    naive = np.eye(a.shape[0], dtype=np.int64)[:, :, None]
    real = pencil.pm_mul
    for e in range(7):
        calls = []
        monkeypatch.setattr(pencil, "pm_mul", lambda *x: calls.append(1) or real(*x))
        got = pencil.pm_pow(a, e, F)
        monkeypatch.undo()
        assert np.array_equal(got, naive), e
        # squarings up to the top bit, then one product per further set bit
        assert len(calls) == max(0, e.bit_length() - 1) + max(0, bin(e).count("1") - 1), e
        naive = real(naive, a, F)


def test_power_pencil_from_p_on_is_zero_without_a_product(monkeypatch):
    def boom(*args):
        raise AssertionError("product made for a vanishing power")

    for m in (K.w_module(3, 4, 3), K.w_module(FieldCtx(2, 2), 3, 2)):
        monkeypatch.setattr(pencil, "pm_mul", boom)
        for j in (m.ctx.p, m.ctx.p + 1, 2 * m.ctx.p + 3):
            z = m.power_pencil(j)
            assert z.shape == (m.dim, m.dim, 1) and not z.any()
        monkeypatch.undo()
        assert not pencil.pm_pow(m.pencil(), m.ctx.p, m.ctx).any()
