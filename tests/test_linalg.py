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
from oracles import solve_fp
from symbolic import rank_gen
from test_pencil import linearize


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
        got = solve_fp(a, b, p)
        assert got is not None
        assert not ((a @ got - b) % p).any()


def test_solve_detects_inconsistency():
    a = np.array([[1, 0], [1, 0]])
    b = np.array([0, 1])
    assert solve_fp(a, b, 2) is None


def test_solve_many_columns_in_one_echelon_form():
    # columns 0 and 2 lie in the column space of a, column 1 does not
    a = np.array([[1, 2], [2, 4], [0, 1]])
    b = np.array([[1, 1, 0], [2, 0, 0], [1, 0, 3]])
    X, solvable = solve_fp(a, b, 5)
    assert solvable.tolist() == [True, False, True]
    assert not ((a @ X - b)[:, solvable] % 5).any()
    for j in range(3):
        x = solve_fp(a, b[:, j], 5)
        assert (x is None) if j == 1 else np.array_equal(x, X[:, j])


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
    assert rank_gen(rows, ctx.zero) == 1
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
        assert linalg.rank_fp(ctx.array(rows), ctx) == rank_gen(rows, ctx.zero)


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
        with pytest.raises(ValueError):
            linalg.matpow_fp(a, -1, F)


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


def _bidiagonal(n, entries):
    """The n x n matrix with the first n entries on its diagonal and the
    rest just above it."""
    a = np.diag(np.array(entries[:n], dtype=np.int64))
    a[np.arange(n - 1), np.arange(1, n)] = entries[n:]
    return a


@st.composite
def rref_inputs(draw):
    """(F, matrix): sparse and dense matrices of every shape (empty, zero,
    wide, tall, full rank), and linearizations of random pencil powers."""
    F = draw(st.sampled_from([FieldCtx(2), FieldCtx(3), FieldCtx(5), FieldCtx(2, 2), FieldCtx(3, 2)]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["random", "zero", "full rank", "linearized", "chain"]))
    rows, cols = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    if kind == "zero":
        return F, np.zeros((rows, cols), dtype=np.int64)
    if kind == "chain":
        # a bidiagonal chain, which the peel takes one column at a time,
        # with its rows and columns shuffled and a few entries added
        n = draw(st.integers(1, 40))
        a = _bidiagonal(n, [F.random_code(rng) or 1 for _ in range(2 * n - 1)])
        a = a[rng.sample(range(n), n)][:, rng.sample(range(n), n)]
        for _ in range(draw(st.integers(0, 3))):
            a[rng.randrange(n), rng.randrange(n)] = F.random_code(rng)
        return F, a
    if kind == "full rank":
        n = draw(st.integers(1, 30))
        a = random_invertible(F, n, rng)
        return F, a[: draw(st.integers(1, n))] if draw(st.booleans()) else a[:, : draw(st.integers(1, n))]
    if kind == "linearized":
        n, ell = draw(st.integers(1, 8)), draw(st.integers(1, 3))
        density = draw(st.sampled_from([0.1, 0.3, 1.0]))
        pencil_ = np.stack([_random_matrix(rng, F, n, n, density) for _ in range(2)], axis=2)
        return F, linearize(pencil.pm_pow(pencil_, ell, F), draw(st.integers(0, 5)))
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
    kernel, (X, solvable) = linalg.kernel_fp(a, F), solve_fp(a, b, F)
    with mock.patch.object(linalg, "rref_fp", oracle_rref):
        assert np.array_equal(kernel, linalg.kernel_fp(a, F))
        Y, also = solve_fp(a, b, F)
        assert np.array_equal(solvable, also) and np.array_equal(X[:, solvable], Y[:, also])
    assert a.shape[1] == 0 or solvable[0]


def _as_coo(a, F, rng):
    """a as triplets in ascending row order, each row's in a random order,
    with a few zero values added and, over F_p, some values raised by
    multiples of p."""
    rows, cols = a.shape
    cells = {(i, j) for i, j in zip(*np.nonzero(a))}
    if rows * cols:
        cells |= {(rng.randrange(rows), rng.randrange(cols)) for _ in range(rng.randrange(4))}
    triplets = []
    for i, j in sorted(cells, key=lambda cell: (cell[0], rng.random())):
        v = int(a[i, j])
        if F.k == 1 and rng.random() < 0.3:
            v += F.p * rng.randrange(1, 4)
        triplets.append((i, j, v))
    r, c, v = (np.array(x, dtype=np.int64) for x in zip(*triplets)) if triplets else [np.zeros(0, np.int64)] * 3
    return linalg.Coo(r, c, v, (rows, cols))


def _assert_coo_of_nonzeros(R, shape):
    assert isinstance(R, linalg.Coo) and R.shape == shape
    assert all(x.dtype == np.int64 for x in R[:3])
    assert np.all(R.val != 0) and np.all(np.diff(R.row) >= 0)
    assert np.unique(R.row * shape[1] + R.col).size == R.row.size


@settings(max_examples=300, deadline=None)
@given(rref_inputs(), st.integers(0, 2**32))
def test_rref_of_coo_is_the_dense_rref(case, seed):
    """A Coo in gives a Coo out, which made dense is the dense rref_fp and the
    per-pivot oracle byte for byte: over F_2, F_3 and F_5 on either route,
    over F_4 and F_9 on the dense one; with zero values, values of p and
    more, empty rows and zero-size shapes."""
    F, a = case
    coo = _as_coo(a, F, random.Random(seed))
    assert np.array_equal(coo.dense() % F.p if F.k == 1 else coo.dense(), F.canon(a))
    R, pivots = linalg.rref_fp(coo, F)
    dense, want = linalg.rref_fp(a, F), oracle_rref(a, F)
    assert pivots == dense[1] == want[1]
    _assert_coo_of_nonzeros(R, a.shape)
    assert np.array_equal(R.dense(), dense[0]) and np.array_equal(R.dense(), want[0])
    K_ = linalg.kernel_fp(coo, F)
    _assert_coo_of_nonzeros(K_, (a.shape[1] - len(pivots), a.shape[1]))
    assert np.array_equal(K_.dense(), linalg.kernel_fp(a, F))


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
        linalg.rref_fp(linearize(a, 4), mod.ctx)
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


# -- the peel of single-entry rows, case by case --------------------------------


def _assert_sparse_rref(a, p, sparse_calls):
    sparse_calls.clear()
    got, want = linalg.rref_fp(a, p), oracle_rref(a, p)
    assert sparse_calls, "the case must take the sparse route"
    assert got[1] == want[1]
    assert got[0].dtype == np.int64 and np.array_equal(got[0], want[0])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_peel_bidiagonal_chains(p, sparse_calls):
    # one single-entry row at the end of the chain, then one more per pass
    rng = random.Random(p)
    for n in (4, 5, 17, 64, 200):
        for a in (np.eye(n, dtype=np.int64) + (p - 1) * np.eye(n, k=1, dtype=np.int64),
                  _bidiagonal(n, [rng.randrange(1, p) for _ in range(2 * n - 1)])):
            _assert_sparse_rref(a, p, sparse_calls)
            _assert_sparse_rref(a[::-1].copy(), p, sparse_calls)
            _assert_sparse_rref(a.T.copy(), p, sparse_calls)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_peel_two_single_rows_on_one_column(p, sparse_calls):
    # e_2 twice, with different values where F_p has them; the second
    # single-entry row reduces to zero
    a = np.zeros((6, 5), dtype=np.int64)
    a[1, 2], a[4, 2] = 1, p - 1
    a[0, [0, 2, 3]] = [1, 1, p - 1]
    a[3, [1, 4]] = [p - 1, 1]
    _assert_sparse_rref(a, p, sparse_calls)
    assert linalg.rref_fp(a, p)[1] == [0, 1, 2]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_peel_column_shared_with_longer_rows(p, sparse_calls):
    # the single-entry row's column is struck from rows of two and three
    # entries, which leaves one of them with a single entry for the next pass
    a = np.zeros((5, 6), dtype=np.int64)
    a[0, 3] = p - 1
    a[1, [1, 3]] = [1, 1]
    a[2, [0, 3, 5]] = [1, p - 1, 1]
    a[3, [1, 2, 4]] = [1, 1, 1]
    _assert_sparse_rref(a, p, sparse_calls)
    assert linalg.rref_fp(a, p)[1] == [0, 1, 2, 3]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_peel_permuted_monomial_with_zero_rows(p, sparse_calls):
    # every row has at most one entry, so the first pass peels everything
    rng = random.Random(10 + p)
    rows, cols = 30, 20
    a = np.zeros((rows, cols), dtype=np.int64)
    a[rng.sample(range(rows), 12), rng.sample(range(cols), 12)] = [rng.randrange(1, p) for _ in range(12)]
    _assert_sparse_rref(a, p, sparse_calls)
    R, pivots = linalg.rref_fp(a, p)
    assert pivots == sorted(np.flatnonzero(a.any(axis=0)).tolist())
    assert np.array_equal(R[:12], np.eye(cols, dtype=np.int64)[pivots])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_peel_finds_no_single_row(p, sparse_calls):
    # every row has two entries: a cycle plus one chord, left to the row maps
    n = 12
    a = np.eye(n, dtype=np.int64) + np.roll(np.eye(n, dtype=np.int64), 1, axis=1) * (p - 1)
    a = np.vstack([a, np.zeros((1, n), dtype=np.int64)])
    a[n, [0, n // 2]] = [1, 1]
    _assert_sparse_rref(a, p, sparse_calls)
