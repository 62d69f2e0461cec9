import random

import pytest

from kemod import dpoly
from kemod.errors import InputError
from kemod.gf import (
    FieldCtx,
    find_irreducible_fp,
    irreducible_of_degree,
    is_irreducible_fp,
    some_irreducible_factor,
    splitting_extension,
    squarefree_part,
)


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


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (3, 2)])
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
        if k == 1:
            assert is_irreducible_fp(p, g)


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
