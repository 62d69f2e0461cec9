import random
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kemod as K
from kemod import linalg, pencil
from kemod.gf import FieldCtx
from kemod.modules import random_invertible


def brute_rank_f2(mat):
    """Oracle: rank over F_2 by enumerating all row combinations."""
    rows = [tuple(r % 2) for r in mat]
    n = len(rows)
    seen = set()
    for mask in range(2**n):
        v = tuple(0 for _ in rows[0]) if rows else ()
        for i in range(n):
            if mask >> i & 1:
                v = tuple((a + b) % 2 for a, b in zip(v, rows[i]))
        seen.add(v)
    count = len(seen)
    rank = 0
    while 2**rank < count:
        rank += 1
    return rank


def test_rref_rank_against_brute_force_f2():
    rng = random.Random(7)
    for _ in range(20):
        mat = np.array([[rng.randrange(2) for _ in range(4)] for _ in range(3)])
        assert linalg.rank_fp(mat, 2) == brute_rank_f2(mat)


def test_kernel_and_rank_nullity():
    rng = random.Random(1)
    for p in (2, 3, 5):
        for _ in range(10):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            a = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
            k = linalg.kernel_fp(a, p)
            assert linalg.rank_fp(a, p) + k.shape[0] == cols
            if k.size:
                assert not (a @ k.T % p).any()


def test_solve_round_trip():
    rng = random.Random(3)
    p = 5
    for _ in range(10):
        a = np.array([[rng.randrange(p) for _ in range(4)] for _ in range(4)])
        x = np.array([rng.randrange(p) for _ in range(4)])
        b = a @ x % p
        got = linalg.solve_fp(a, b, p)
        assert got is not None
        assert not ((a @ got - b) % p).any()


def test_solve_detects_inconsistency():
    a = np.array([[1, 0], [1, 0]])
    b = np.array([0, 1])
    assert linalg.solve_fp(a, b, 2) is None


def test_inverse():
    p = 7
    a = np.array([[1, 2], [3, 4]])
    inv = linalg.inv_fp(a, p)
    assert np.array_equal(a @ inv % p, np.eye(2, dtype=np.int64))


def test_generic_rref_matches_numpy_on_prime_field():
    ctx = FieldCtx(5)
    rng = random.Random(11)
    for _ in range(8):
        arr = [[rng.randrange(5) for _ in range(4)] for _ in range(3)]
        rows = [[ctx.scalar(v) for v in row] for row in arr]
        _, piv = linalg.rref_gen(rows, ctx.zero)
        assert len(piv) == linalg.rank_fp(np.array(arr), 5)


def test_generic_kernel_extension_field():
    ctx = FieldCtx(2, 2)
    g = ctx.gen()
    rows = [[ctx.one, g], [g, g * g]]  # row2 = g * row1, rank 1
    assert linalg.rank_gen(rows, ctx.zero) == 1
    kern = linalg.kernel_gen(rows, ctx.zero, ctx.one)
    assert len(kern) == 1
    x = kern[0]
    assert not (rows[0][0] * x[0] + rows[0][1] * x[1])


def test_blowup_rank_matches_generic():
    # rank over F_9 computed by the numpy lane must agree with the generic
    # elimination over F_9 scalars
    ctx = FieldCtx(3, 2)
    rng = random.Random(5)
    for _ in range(10):
        coeffs = np.array(
            [[[rng.randrange(3) for _ in range(2)] for _ in range(3)] for _ in range(3)]
        )
        rows = [[ctx.scalar([int(c) for c in coeffs[i, j]]) for j in range(3)] for i in range(3)]
        assert linalg.rank_fp(ctx.array(rows), ctx) == linalg.rank_gen(rows, ctx.zero)


def test_matmul_fp_large_values_exact():
    p = 5
    a = np.full((40, 40), p - 1, dtype=np.int64)
    c = linalg.matmul_fp(a, a, p)
    assert (c == (40 * 16) % p).all()


def test_matpow_matches_repeated_products():
    rng = random.Random(4)
    for F in (FieldCtx(5), FieldCtx(3, 2)):
        a = np.array([[F.random_code(rng) for _ in range(6)] for _ in range(6)], dtype=np.int64)
        want = np.eye(6, dtype=np.int64)
        for e in range(10):
            got = linalg.matpow_fp(a, e, F)
            assert np.array_equal(got, want), (F, e)
            assert got is not a
            want = linalg.matmul_fp(want, a, F)


# -- the sparse route against the per-pivot routine --------------------------------


def oracle_rref(a, F):
    """The dense per-pivot elimination that every input took before the
    sparse route: one vectorized pass per pivot column."""
    F = linalg.field(F)
    R = F.canon(a).copy()
    rows, cols = R.shape
    pivots = []
    pr = 0
    for c in range(cols):
        if pr >= rows:
            break
        nz = np.nonzero(R[pr:, c])[0]
        if nz.size == 0:
            continue
        r0 = pr + nz[0]
        if r0 != pr:
            R[[pr, r0]] = R[[r0, pr]]
        lead = int(R[pr, c])
        if lead != 1:
            R[pr] = F.mul(R[pr], F.inv(lead))
        coef = R[:, c].copy()
        coef[pr] = 0
        mask = coef != 0
        if mask.any():
            R[mask] = F.sub_mul(R[mask], coef[mask][:, None], R[pr])
        pivots.append(c)
        pr += 1
    return R, pivots


def _random_matrix(rng, F, rows, cols, density):
    return np.array(
        [F.random_code(rng) if rng.random() < density else 0 for _ in range(rows * cols)], dtype=np.int64
    ).reshape(rows, cols)


@st.composite
def rref_inputs(draw):
    """(F, matrix): sparse and dense matrices of every shape (empty, zero,
    wide, tall, full rank), and linearizations of random pencil powers."""
    F = draw(st.sampled_from([FieldCtx(2), FieldCtx(3), FieldCtx(5), FieldCtx(2, 2), FieldCtx(3, 2)]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["random", "zero", "full rank", "linearized"]))
    rows, cols = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    if kind == "zero":
        return F, np.zeros((rows, cols), dtype=np.int64)
    if kind == "full rank":
        n = draw(st.integers(1, 30))
        a = random_invertible(F, n, rng)
        return F, a[: draw(st.integers(1, n))] if draw(st.booleans()) else a[:, : draw(st.integers(1, n))]
    if kind == "linearized":
        n, ell = draw(st.integers(1, 8)), draw(st.integers(1, 3))
        density = draw(st.sampled_from([0.1, 0.3, 1.0]))
        pencil_ = np.stack([_random_matrix(rng, F, n, n, density) for _ in range(2)], axis=2)
        return F, pencil.linearize(pencil.pm_pow(pencil_, ell, F), draw(st.integers(0, 5)))
    density = draw(st.sampled_from([0.02, 0.08, 0.3, 1.0]))
    return F, _random_matrix(rng, F, rows, cols, density)


@settings(max_examples=300, deadline=None)
@given(rref_inputs())
def test_rref_matches_per_pivot_oracle(case):
    F, a = case
    want = oracle_rref(a, F)
    got = linalg.rref_fp(a, F)
    assert got[1] == want[1]
    assert got[0].dtype == np.int64 and np.array_equal(got[0], want[0])
    # kernel_fp and solve_fp read the same echelon form on both routes
    rng = random.Random(a.size)
    b = _random_matrix(rng, F, a.shape[0], 2, 0.5)
    if a.shape[1]:
        b[:, 0] = linalg.matmul_fp(a, _random_matrix(rng, F, a.shape[1], 1, 0.5), F)[:, 0]
    kernel, solved = linalg.kernel_fp(a, F), linalg.solve_fp(a, b, F)
    with mock.patch.object(linalg, "rref_fp", oracle_rref):
        assert np.array_equal(kernel, linalg.kernel_fp(a, F))
        for x, y in zip(solved, linalg.solve_fp(a, b, F)):
            assert (x is None and y is None) or np.array_equal(x, y)
    assert a.shape[1] == 0 or solved[0] is not None


def test_rref_leaves_its_input_alone():
    # both routes return a fresh array and never write to the input
    for a in (np.eye(5, dtype=np.int64), np.ones((5, 5), dtype=np.int64) * 7):
        before = a.copy()
        R, _ = linalg.rref_fp(a, 5)
        assert R is not a and np.array_equal(a, before)
    F4 = FieldCtx(2, 2)
    a = np.array([[2, 3], [3, 1]], dtype=np.int64)
    R, _ = linalg.rref_fp(a, F4)
    assert not np.shares_memory(R, a) and np.array_equal(a, [[2, 3], [3, 1]])


# -- which inputs take the sparse route ------------------------------------------


@pytest.fixture
def sparse_calls(monkeypatch):
    """The callers of linalg._rref_sparse, recorded as it runs."""
    calls = []
    real = linalg._rref_sparse

    def spy(*args):
        calls.append(sys._getframe(1).f_code)
        return real(*args)

    monkeypatch.setattr(linalg, "_rref_sparse", spy)
    return calls


def _disguise(m, rng):
    """X_i -> P X_i P^-1, then a random invertible change of coordinates."""
    P = random_invertible(m.ctx, m.dim, rng)
    Pinv = linalg.inv_fp(P, m.ctx)
    mats = [linalg.matmul_fp(linalg.matmul_fp(P, x, m.ctx), Pinv, m.ctx) for x in m.mats]
    return K.restrict(K.KEModule(m.ctx, 2, mats), random_invertible(m.ctx, 2, rng))


def test_aligned_linearization_is_sparse_disguised_is_dense(sparse_calls):
    # the pencil power of a basis-aligned W-module has about one nonzero per
    # row; after a change of basis and coordinates it is dense
    m = K.w_module(3, 6, 3)
    disguised = _disguise(m, random.Random(2))
    for mod, sparse in ((m, True), (disguised, False)):
        sparse_calls.clear()
        a = pencil.pm_pow(mod.pencil(), 2, mod.ctx)
        linalg.rref_fp(pencil.linearize(a, 4), mod.ctx)
        assert bool(sparse_calls) == sparse


def test_sparse_route_is_reached_only_through_rref_fp(sparse_calls):
    # every elimination enters through linalg.rref_fp, where the benchmark's
    # tracer counts it
    m = K.w_module(3, 6, 3)
    for i in range(1, 4):
        K.splitting_type(m, i)
    assert sparse_calls
    assert {code.co_name for code in sparse_calls} == {"rref_fp"}
    assert all(code is linalg.rref_fp.__code__ for code in sparse_calls)
