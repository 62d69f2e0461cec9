import random

import numpy as np

from kemod import linalg
from kemod.gf import FieldCtx


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
