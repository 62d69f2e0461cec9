"""The pencil engine against the engines it replaced.

The row-at-a-time oracles select kernel generators one candidate row at a
time, re-echelonizing after each one; the library selects each degree's new
generators in one batch.  Both must find the same minimal indices, and their
generators must span the same module.  The from-scratch oracle is the batched
engine with each degree's kernel computed from its whole linearization; the
library reads every degree's kernel off one echelon form up to a top degree,
and its generators must be the same arrays.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kemod as K
from kemod import linalg, pencil
from kemod.errors import ConsistencyError
from kemod.generate import mixed_family
from kemod.gf import FieldCtx
from kemod.modules import generic_power_ranks, random_invertible
from kemod.pencil import GradedGen

# -- oracles: one generator at a time ----------------------------------------------


def _flatten_shift(g, shift, vdeg, cols):
    v = np.zeros((vdeg + 1) * cols, dtype=np.int64)
    for e in range(g.deg + 1):
        v[(e + shift) * cols : (e + shift + 1) * cols] = g.coeffs[:, e]
    return v


def oracle_graded_kernel_basis(a, F, kappa):
    rows, cols, d1 = a.shape
    if kappa == 0:
        return []
    degcap = (d1 - 1) * max(1, cols - kappa) + cols + 1
    gens = []
    for delta in range(degcap + 1):
        K_ = linalg.kernel_fp(pencil.linearize(a, delta), F)
        if K_.shape[0] == 0:
            continue
        old = [_flatten_shift(g, e, delta, cols) for g in gens for e in range(delta - g.deg + 1)]
        if old:
            ech, piv = linalg.rref_fp(np.array(old), F)
            ech = ech[: len(piv)]
        else:
            ech, piv = np.zeros((0, (delta + 1) * cols), dtype=np.int64), []
        for row in K_:
            res = linalg.reduce_rows_fp(row[None, :], ech, list(piv), F)[0] if len(piv) else row
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
            res = linalg.reduce_rows_fp(row[None, :], ech, list(piv), F)[0] if len(piv) else row
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
    rows, cols, d1 = a.shape
    if kappa == 0:
        return []
    degcap = (d1 - 1) * max(1, cols - kappa) + cols + 1
    gens = []
    for delta in range(degcap + 1):
        K_ = linalg.kernel_fp(pencil.linearize(a, delta), F)
        if K_.shape[0] == pencil.kernel_slice_dim(gens, delta):
            continue
        for res in pencil._complement(K_, pencil._shift_rows(gens, delta, cols), F):
            gens.append(GradedGen(res.reshape(delta + 1, cols).T.copy(), delta))
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


def _family():
    rng = random.Random(3)
    mods = [K.w_module(p, n, d) for p in (2, 3, 5) for n in range(1, 5) for d in range(1, min(n, p) + 1)]
    mods += [mem.module for mem in mixed_family(12, seed=5, max_dim=12)]
    for parts in [[(3, 3), (3, 2)], [(4, 2), (2, 1)], [(3, 2), (2, 2)]]:
        a, b = (K.w_module(3, n, d) for n, d in parts)
        mods += [_disguise(K.direct_sum(a, b), rng), _disguise(K.direct_sum(a, K.dual(b)), rng)]
    mods += [K.w_module(FieldCtx(2, 2), n, d) for n, d in [(2, 2), (3, 2), (4, 2)]]
    mods += [K.w_module(FieldCtx(3, 2), n, d) for n, d in [(2, 2), (3, 3), (4, 2)]]
    return mods


def _w_grid_and_mixed():
    rng = random.Random(11)
    grid = [K.w_module(p, n, d) for p in (2, 3, 5) for n in range(1, 6) for d in range(1, min(n, p) + 1)]
    return grid + [_disguise(m, rng) for m in grid] + [mem.module for mem in mixed_family(12, seed=5, max_dim=12)]


def _solvable(gens, targets, F, dim):
    return all(
        sol is not None
        for t in targets
        for sol in pencil.solve_in_basis(gens, [t.coeffs], t.deg, dim, F)
    )


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
    assert pencil.solve_in_basis(basis, [outside], tdeg, d, F) == [None]
    targets = inside[:2] + [outside] + inside[2:]
    sols = pencil.solve_in_basis(basis, targets, tdeg, d, F)
    assert [sol is None for sol in sols] == [False, False, True, False, False]
    for t, sol in zip(inside, sols[:2] + sols[3:]):
        assert [cm.size for cm in sol] == sizes
        assert np.array_equal(_combine(F, basis, sol, d, tdeg), t)
        (single,) = pencil.solve_in_basis(basis, [t], tdeg, d, F)
        assert all(np.array_equal(x, y) for x, y in zip(single, sol))


def test_solve_in_basis_without_generators():
    zero = np.zeros((2, 1), dtype=np.int64)
    one = np.ones((2, 1), dtype=np.int64)
    assert pencil.solve_in_basis([], [zero, one], 0, 2, 3) == [[], None]


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


@pytest.mark.parametrize(
    "F", [FieldCtx(2), FieldCtx(3), FieldCtx(5), FieldCtx(2, 2), FieldCtx(3, 2)], ids=lambda F: f"F{F.q}"
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_prefix_echelon_matches_kernel_fp_of_each_prefix(F, data):
    """Every column prefix's nullity and kernel equal those of kernel_fp of
    the prefix itself: random block-Toeplitz sweeps (blocks of random
    sizes, empty ones too, rows below each prefix) and random dense matrices."""
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    density = data.draw(st.sampled_from([0.15, 0.5, 1.0]))
    rows, cols, d1 = (data.draw(st.integers(0, 5)) for _ in range(3))
    if data.draw(st.booleans()):
        a = np.array(
            [F.random_code(rng) if rng.random() < density else 0 for _ in range(rows * cols * (d1 + 1))],
            dtype=np.int64,
        ).reshape(rows, cols, d1 + 1)
        top = data.draw(st.integers(0, 5))
        M, ends = pencil.linearize(a, top), cols * np.arange(1, top + 2)
    else:
        M = np.array(
            [F.random_code(rng) if rng.random() < density else 0 for _ in range(rows * cols * 4)],
            dtype=np.int64,
        ).reshape(rows * 2, cols * 2)
        ends = np.array(sorted(data.draw(st.lists(st.integers(0, cols * 2), min_size=1, max_size=5))))
    ech = pencil._PrefixEchelon(M, ends, F)
    for k, end in enumerate(ends):
        want = linalg.kernel_fp(M[:, :end], F)
        assert ech.nullity(k) == want.shape[0]
        got = ech.kernel(k)
        assert got.dtype == np.int64 and np.array_equal(got, want), (k, end)


def oracle_complement(K, old, F):
    """The complement as the engine chose it before: all of K reduced by the
    echelon form of old, then one echelon form of the residuals."""
    if old.shape[0]:
        ech, piv = linalg.rref_fp(old, F)
        K = linalg.reduce_rows_fp(K, ech[: len(piv)], piv, F)
    R, piv = linalg.rref_fp(K, F)
    return R[: len(piv)]


@pytest.mark.parametrize("F", [FieldCtx(2), FieldCtx(3), FieldCtx(5), FieldCtx(3, 2)], ids=lambda F: f"F{F.q}")
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_complement_matches_reduce_then_eliminate(F, data):
    """The permuted elimination gives the oracle's rows byte for byte: K a
    kernel basis of a random sparse or dense matrix, old independent
    combinations of its rows."""
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    density = data.draw(st.sampled_from([0.05, 0.2, 1.0]))
    rows, cols = data.draw(st.integers(0, 12)), data.draw(st.integers(1, 40))
    rand = lambda r, c: np.array(
        [F.random_code(rng) if rng.random() < density else 0 for _ in range(r * c)], dtype=np.int64
    ).reshape(r, c)
    K = linalg.kernel_fp(rand(rows, cols), F)
    C = linalg.row_space_fp(rand(data.draw(st.integers(0, K.shape[0])), K.shape[0]), F)[0]
    old = linalg.matmul_fp(C, K, F) if C.size else np.zeros((0, cols), dtype=np.int64)
    got = pencil._complement(K, old, F)
    want = oracle_complement(K, old, F)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert got.shape[0] == K.shape[0] - old.shape[0]
