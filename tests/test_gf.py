import itertools
import random

import numpy as np
import pytest

from kemod import dpoly, gf
from kemod.errors import InputError
from kemod.gf import (
    FieldCtx,
    extension,
    find_irreducible_fp,
    irreducible_of_degree,
    is_irreducible,
    is_irreducible_fp,
    some_irreducible_factor,
    splitting_extension,
    squarefree_part,
)
from oracles import matmul_schoolbook


def test_prime_validation():
    FieldCtx(2)
    FieldCtx(97)
    with pytest.raises(InputError):
        FieldCtx(6)


def test_prime_field_arithmetic():
    f5 = FieldCtx(5)
    a, b = f5.scalar(3), f5.scalar(4)
    assert (a + b).serialize() == 2
    assert (a * b).serialize() == 2
    assert (a / b).serialize() == 2  # 3 * 4^{-1} = 3 * 4 = 12 = 2
    assert (-a).serialize() == 2
    assert a**4 == f5.one  # Fermat


def test_extension_field_is_a_field():
    f9 = FieldCtx(3, 2)
    # brute force: every nonzero element has an inverse, multiplication closes
    elements = list(f9.elements())
    assert len(elements) == 9
    for x in elements:
        if x:
            assert x * x.inverse() == f9.one
    gen = f9.gen()
    # multiplicative order of some element divides 8 and the powers cycle
    seen = {gen**i for i in range(1, 9)}
    assert f9.one in seen
    # powers against repeated products
    for x in elements:
        want = f9.one
        for e in range(10):
            assert x**e == want, (x, e)
            want = want * x


def test_frobenius_pth_root():
    f8 = FieldCtx(2, 3)
    for x in f8.elements():
        assert x.pth_root() ** 2 == x


def test_irreducibility_known_cases():
    # x^2 + 1 irreducible over F_3, reducible over F_5 (2^2 = 4 = -1)
    assert is_irreducible_fp(3, [1, 0, 1])
    assert not is_irreducible_fp(5, [1, 0, 1])
    # x^2 + x + 1 over F_2
    assert is_irreducible_fp(2, [1, 1, 1])
    assert not is_irreducible_fp(2, [1, 0, 1])  # (x+1)^2


def test_find_irreducible_matches_exhaustive_count():
    # over F_2 there are exactly 2 irreducible cubics; the search must hit one
    f = find_irreducible_fp(2, 3)
    assert f in ([1, 1, 0, 1], [1, 0, 1, 1])


def _monic(ctx, deg):
    for low in itertools.product(range(ctx.q), repeat=deg):
        yield list(low) + [1]


# the tops reach degree 5 over F_2 and F_3, where f can be a quadratic
# times a cubic: its factor shows at e = 2, a degree that does not divide 5
@pytest.mark.parametrize("p,k,top", [(2, 1, 6), (3, 1, 5), (2, 2, 4), (5, 1, 3), (3, 2, 3)])
def test_irreducibility_matches_exhaustive_factor_search(p, k, top):
    ctx = FieldCtx(p, k)
    q = ctx.q
    # Gauss's count of the monic irreducibles of each degree
    gauss = [0, q, (q**2 - q) // 2, (q**3 - q) // 3, (q**4 - q**2) // 4, (q**5 - q) // 5,
             (q**6 - q**3 - q**2 + q) // 6]
    for deg in range(top + 1):
        divisors = [g for d in range(1, deg // 2 + 1) for g in _monic(ctx, d)]
        count = 0
        for f in _monic(ctx, deg):
            irreducible = deg >= 1 and all(dpoly.rem(ctx.ops, f, g) for g in divisors)
            assert is_irreducible(ctx, f) == irreducible, f
            if k == 1:
                assert is_irreducible_fp(p, f) == irreducible, f
            count += irreducible
        assert count == gauss[deg], deg


def test_degree_below_one_is_refused():
    for deg in (0, -1):
        with pytest.raises(InputError):
            irreducible_of_degree(FieldCtx(3, 2), deg)
        with pytest.raises(InputError):
            find_irreducible_fp(5, deg)
        with pytest.raises(InputError):
            extension(FieldCtx(2), deg)


def _bits(digits):
    return tuple(map(int, digits))


# Pinned default moduli and extension() fields: element codes, files and
# reports over F_{p^k} depend on them, so a drift in the seeded search
# stream must show here.
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 0, 1, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 1, 0, 1, 1),
    (2, 8): (1, 1, 0, 0, 1, 1, 1, 1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 2, 2, 1),
    (3, 5): (1, 2, 2, 1, 0, 1),
    (3, 6): (2, 2, 2, 1, 1, 1, 1),
    (3, 7): (1, 2, 0, 1, 0, 0, 2, 1),
    (3, 8): (1, 0, 2, 2, 1, 0, 1, 2, 1),
    (5, 2): (1, 1, 1),
    (5, 3): (3, 4, 0, 1),
    (5, 4): (4, 4, 3, 1, 1),
    (5, 5): (3, 0, 4, 4, 4, 1),
    (5, 6): (3, 1, 3, 0, 1, 0, 1),
    (5, 7): (1, 1, 0, 1, 4, 2, 4, 1),
    (5, 8): (2, 0, 1, 2, 3, 2, 0, 2, 1),
    (7, 2): (4, 6, 1),
    (7, 3): (5, 4, 5, 1),
    (7, 4): (3, 1, 3, 3, 1),
    (7, 5): (3, 5, 2, 4, 1, 1),
    (7, 6): (1, 0, 3, 2, 4, 6, 1),
    (7, 7): (5, 2, 0, 0, 1, 3, 5, 1),
    (7, 8): (2, 4, 4, 0, 0, 4, 3, 1, 1),
    (101, 2): (6, 8, 1),
    (101, 3): (83, 42, 39, 1),
    (101, 4): (12, 38, 41, 89, 1),
    (101, 5): (57, 69, 28, 72, 48, 1),
    (101, 6): (42, 52, 32, 73, 31, 79, 1),
    (101, 7): (16, 71, 75, 66, 5, 15, 84, 1),
    (101, 8): (8, 82, 41, 91, 77, 82, 18, 57, 1),
    # past the tables: the fields of test_xor_product_equals_digit_planes,
    # the constant coefficient first
    (2, 12): _bits("1100110000001"),
    (2, 13): _bits("10101110110011"),
    (2, 21): _bits("1010010001001101010111"),
    (2, 31): _bits("11101000011010101101100000011001"),
    (2, 32): _bits("110011000001000001000010011011101"),
    (2, 47): _bits("100101100110001011001110011101101110110001100001"),
    (2, 61): _bits("11001011111010110100000101101111101001100100100111110100001111"),
}

BASES = {"F2": (2, 1), "F3": (3, 1), "F5": (5, 1), "F4": (2, 2), "F9": (3, 2), "F8": (2, 3)}

# (base, m) -> (p, k, modulus) of extension(base, m); the last m of each
# base is the first with q^m > 2^20, the default of the r >= 3 sampling
EXTENSION_MODULI = {
    ("F2", 2): (2, 2, (1, 1, 1)),
    ("F2", 3): (2, 3, (1, 0, 1, 1)),
    ("F2", 4): (2, 4, (1, 1, 0, 0, 1)),
    ("F2", 21): (2, 21, (1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 0, 1, 1, 1)),
    ("F3", 2): (3, 2, (2, 2, 1)),
    ("F3", 3): (3, 3, (1, 2, 0, 1)),
    ("F3", 4): (3, 4, (2, 1, 2, 2, 1)),
    ("F3", 13): (3, 13, (2, 2, 0, 0, 0, 2, 1, 1, 2, 1, 2, 0, 2, 1)),
    ("F5", 2): (5, 2, (1, 1, 1)),
    ("F5", 3): (5, 3, (3, 4, 0, 1)),
    ("F5", 4): (5, 4, (4, 4, 3, 1, 1)),
    ("F5", 9): (5, 9, (1, 2, 2, 0, 0, 3, 4, 2, 4, 1)),
    ("F4", 2): (2, 4, (1, 1, 0, 0, 1)),
    ("F4", 3): (2, 6, (1, 0, 1, 1, 0, 1, 1)),
    ("F4", 4): (2, 8, (1, 1, 1, 1, 1, 1, 0, 0, 1)),
    ("F4", 11): (2, 22, (1, 1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 1)),
    ("F9", 2): (3, 4, (2, 2, 0, 0, 1)),
    ("F9", 3): (3, 6, (1, 0, 1, 1, 0, 1, 1)),
    ("F9", 4): (3, 8, (1, 0, 1, 2, 2, 2, 1, 0, 1)),
    ("F9", 7): (3, 14, (2, 2, 1, 2, 1, 1, 0, 0, 1, 2, 2, 2, 1, 2, 1)),
    ("F8", 2): (2, 6, (1, 0, 1, 0, 1, 1, 1)),
    ("F8", 3): (2, 9, (1, 0, 1, 0, 1, 0, 1, 1, 1, 1)),
    ("F8", 4): (2, 12, (1, 1, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1, 1)),
    ("F8", 7): (2, 21, (1, 0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 1, 1)),
}


def test_default_moduli_are_pinned():
    for (p, k), modulus in DEFAULT_MODULI.items():
        assert FieldCtx(p, k).modulus == modulus, (p, k)
        assert tuple(find_irreducible_fp(p, k)) == modulus, (p, k)
    assert FieldCtx(101).modulus == (0, 1) and find_irreducible_fp(101, 1) == [0, 1]


def test_extension_moduli_are_pinned():
    for (name, m), want in EXTENSION_MODULI.items():
        base = FieldCtx(*BASES[name])
        ext = extension(base, m)
        assert (ext.p, ext.k, ext.modulus) == want, (name, m)
        assert (m > 4) == (base.q ** (m - 1) <= 2**20 < base.q**m), (name, m)
    assert extension(FieldCtx(3, 2), 1) == FieldCtx(3, 2)


def test_squarefree_part_strips_multiplicity():
    ctx = FieldCtx(3)
    ops = ctx.ops
    one, two = 1, 2
    # f = (t - 1)^2 (t - 2) = expand over F_3
    f1 = [two, one]          # t + 2 = t - 1
    f2 = [one, one]          # t + 1 = t - 2
    f = dpoly.mul(ops, dpoly.mul(ops, f1, f1), f2)
    sf = squarefree_part(ctx, f)
    expected = dpoly.monic(ops, dpoly.mul(ops, f1, f2))
    assert sf == expected


def test_squarefree_part_pth_power():
    ctx = FieldCtx(2)
    ops = ctx.ops
    t = [0, 1]
    f = dpoly.mul(ops, t, t)  # t^2 = (t)^2, derivative vanishes
    assert squarefree_part(ctx, f) == t


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (3, 2), (2, 2)])
def test_some_irreducible_factor_divides_and_is_irreducible(p, k):
    ctx = FieldCtx(p, k)
    ops = ctx.ops
    rng = random.Random(p * 100 + k)
    for _ in range(6):
        deg = rng.randint(2, 5)
        f = [ctx.random_code(rng) for _ in range(deg)] + [1]
        g = some_irreducible_factor(ctx, f, seed=3)
        # g divides the square-free part of f, hence f has a root wherever g does
        sf = squarefree_part(ctx, f)
        _, rem = dpoly.divmod_(ops, sf, g)
        assert rem == []
        assert is_irreducible(ctx, g)


def test_splitting_extension_contains_root():
    ctx = FieldCtx(3)
    # t^2 + 1 is irreducible over F_3
    g = [1, 0, 1]
    ext, root = splitting_extension(ctx, g)
    assert ext.q == 9
    root = ext.decode(root)
    val = root * root + ext.one
    assert not val


def test_tower_extension_over_f4():
    base = FieldCtx(2, 2)
    # an irreducible quadratic over F_4 gives F_16, built over F_4
    g = irreducible_of_degree(base, 2)
    ext, root = splitting_extension(base, g)
    assert isinstance(ext, FieldCtx) and ext.base == base
    assert ext.q == 16
    x = ext.decode(root)
    inv = x.inverse()
    assert x * inv == ext.one


def _exact_product(a, b, p):
    return (a @ b) % p


@pytest.mark.parametrize(
    "n,inner,m",
    [
        (63, 64, 64), (64, 64, 64), (65, 64, 64), (129, 64, 64),  # whole-row pieces of 64 rows
        (3, 300, 400),  # pieces of two rows
        (30, 300, 900), (1, 300, 900),  # two rows past the cutoff: one call
        (5, 0, 7), (1, 6, 4), (0, 5, 3), (4, 5, 0),
    ],
)
def test_chunked_product_is_exact(n, inner, m):
    rng = np.random.default_rng(n * 1000 + inner + m)
    for p in (2, 5, 1048573):
        a, b = rng.integers(0, p, (n, inner)), rng.integers(0, p, (inner, m))
        got = gf._matmul_mod(a, b, p)
        assert got.dtype == np.int64 and got.shape == (n, m)
        assert np.array_equal(got, _exact_product(a, b, p)), p


def test_chunked_product_with_tiny_pieces(monkeypatch):
    monkeypatch.setattr(gf, "ONE_THREAD_MNK", 50)
    rng = np.random.default_rng(2)
    for _ in range(40):
        n, inner, m = (int(x) for x in rng.integers(0, 13, 3))
        a, b = rng.integers(0, 7, (n, inner)), rng.integers(0, 7, (inner, m))
        assert np.array_equal(gf._matmul_mod(a, b, 7), _exact_product(a, b, 7))
    # the digit planes of F_{3^4} folded in pieces as well
    F = FieldCtx(3, 4)
    x, y = rng.integers(0, F.q, (9, 11)), rng.integers(0, F.q, (11, 6))
    monkeypatch.setattr(gf, "ONE_THREAD_MNK", 2**40)
    whole = F.matmul(x, y), F._mul_digits(x[:, :6], y[:9])
    monkeypatch.setattr(gf, "ONE_THREAD_MNK", 50)
    assert np.array_equal(F.matmul(x, y), whole[0])
    assert np.array_equal(F._mul_digits(x[:, :6], y[:9]), whole[1])


@pytest.mark.parametrize("shape_a,shape_b", [
    ((3, 8192), (8192, 2)),  # one call
    ((40, 8192), (8192, 1)),  # pieces of 32 rows
    ((2, 3, 8192), (2, 8192, 2)),  # a stack
])
def test_product_at_the_float64_bound_is_exact(shape_a, shape_b):
    # the largest float64 sums: (p - 1)^2 * inner just below 2^53; one more
    # term takes the int64 fallback
    p, inner = 1048573, 8192
    assert (p - 1) ** 2 * inner < 2**53 <= (p - 1) ** 2 * (inner + 1)
    got = gf._matmul_mod(np.full(shape_a, p - 1), np.full(shape_b, p - 1), p)
    # (p - 1)^2 = 1 mod p, so every entry is inner mod p
    assert got.dtype == np.int64 and got.shape == shape_a[:-1] + shape_b[-1:]
    assert (got == inner % p).all()


def test_product_past_the_float64_bound_is_exact():
    # (p - 1)^2 * inner >= 2^53: the int64 fallback
    p, inner = 1048573, 9000
    assert (p - 1) ** 2 * inner >= 2**53
    rng = np.random.default_rng(5)
    a, b = rng.integers(0, p, (2, inner)), rng.integers(0, p, (inner, 3))
    want = np.array([[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T] for row in a])
    assert np.array_equal(gf._matmul_mod(a, b, p), want)


@pytest.mark.parametrize("k", [12, 13, 21, 31, 32, 47, 61])
def test_xor_product_equals_digit_planes(k):
    # past the tables, p = 2 multiplies the codes themselves by shift-and-XOR
    F = FieldCtx(2, k)
    assert F.q > gf.TABLE_Q and not F._tables()
    rng = np.random.default_rng(k)
    a = rng.integers(0, F.q, (6, 1, 1), dtype=np.int64)
    b = rng.integers(0, F.q, (1, 4, 4), dtype=np.int64)
    a[0], a[1] = 0, 1
    b[0, 0] = [0, 1, F.q - 1, F.q - 2]
    for x, y in ((a, b), (b, a), (a, a[0]), (np.int64(F.q - 1), b), (a[:0], b)):
        got = F.mul(x, y)
        want = F._mul_digits(x, y)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert got.dtype == np.int64 and (got.size == 0 or 0 <= got.min() <= got.max() < F.q)
    prod = F.mul(a, b)
    assert not prod[0].any() and np.array_equal(prod[1], b[0])
    # each nonzero code times its inverse is one
    x = [int(v) for v in b.reshape(-1) if v]
    assert F.mul(np.array(x), np.array([F.inv(v) for v in x])).tolist() == [1] * len(x)


@pytest.mark.parametrize("F", [FieldCtx(5), FieldCtx(2, 3), FieldCtx(3, 4), FieldCtx(2, 13)], ids=repr)
def test_stacked_matmul_is_the_product_of_each_slice(F):
    rng = np.random.default_rng(F.q)
    a = rng.integers(0, F.q, (4, 3, 5), dtype=np.int64)
    b = rng.integers(0, F.q, (4, 5, 2), dtype=np.int64)
    got = F.matmul(a, b)
    assert got.shape == (4, 3, 2)
    for s in range(4):
        assert np.array_equal(got[s], F.matmul(a[s], b[s]))
    assert F.matmul(a[:0], b[:0]).shape == (0, 3, 2)


@pytest.mark.parametrize("F", [FieldCtx(2, 2), FieldCtx(2, 3), FieldCtx(3, 2), FieldCtx(5, 2), FieldCtx(2, 13)],
                         ids=lambda F: f"F{F.q}")
def test_matmul_is_the_schoolbook_product(F):
    rng = np.random.default_rng(F.q + 1)
    shapes = [((), 3, 5, 2), ((), 7, 1, 6), ((4,), 3, 5, 2), ((2, 3), 2, 4, 3),
              ((), 0, 3, 2), ((), 3, 0, 2), ((), 3, 2, 0), ((0,), 2, 3, 2), ((2, 3), 0, 4, 0)]
    for lead, n, inner, m in shapes:
        a = rng.integers(0, F.q, lead + (n, inner), dtype=np.int64)
        b = rng.integers(0, F.q, lead + (inner, m), dtype=np.int64)
        a.reshape(-1)[:1] = F.q - 1
        got = F.matmul(a, b)
        assert got.dtype == np.int64 and got.shape == lead + (n, m)
        assert np.array_equal(got, matmul_schoolbook(F, a, b)), (lead, n, inner, m)


@pytest.mark.parametrize("p, k", [(3, 2), (5, 2), (3, 4)], ids=["F9", "F25", "F81"])
def test_digit_table_is_the_division_form(p, k):
    F = FieldCtx(p, k)
    codes = np.arange(F.q)
    want = (codes[:, None] // p ** np.arange(k)) % p
    assert np.array_equal(F._digits(codes), want)
    assert F._digit_tab is not None  # read off the table
    stack = np.random.default_rng(p + k).integers(0, F.q, (3, 4, 5))
    assert np.array_equal(F._digits(stack), (stack[..., None] // p ** np.arange(k)) % p)
