import random

import pytest

from kemod.errors import MathRefusal
from kemod.gf import FieldCtx
from symbolic import Poly, RationalFunction, coefficient_vectors, rank_gen, specialize


def rf(ctx, num, den=None, nvars=1):
    n = Poly(ctx, nvars, {tuple(e): ctx.scalar(c) for e, c in num.items()})
    if den is None:
        return RationalFunction.from_poly(n)
    d = Poly(ctx, nvars, {tuple(e): ctx.scalar(c) for e, c in den.items()})
    return RationalFunction(n, d)


def test_specialize_simple():
    # (t + 1) at t = 2 over F_5 -> 3
    ctx = FieldCtx(5)
    f = rf(ctx, {(1,): 1, (0,): 1})
    assert specialize(f, [2]).serialize() == 3


def test_specialize_pole_is_error():
    ctx = FieldCtx(5)
    f = rf(ctx, {(0,): 1}, {(1,): 1})  # 1/t
    with pytest.raises(MathRefusal):
        specialize(f, [0])


def test_coefficient_vectors():
    ctx = FieldCtx(3)
    one_plus_t = Poly(ctx, 1, {(0,): ctx.one, (1,): ctx.one})
    t = Poly(ctx, 1, {(1,): ctx.one})
    vecs = coefficient_vectors([one_plus_t, t])
    got = {tuple(x.serialize() for x in v) for v in vecs}
    assert got == {(1, 0), (1, 1)}


def test_rank_over_rational_function_field():
    # [[1, t], [t, t^2]] over F_3(t) has rank 1: row2 = t * row1 (hand check)
    ctx = FieldCtx(3)
    one = rf(ctx, {(0,): 1})
    t = rf(ctx, {(1,): 1})
    t2 = rf(ctx, {(2,): 1})
    rows = [[one, t], [t, t2]]
    zero = RationalFunction.const(ctx, 1, 0)
    assert rank_gen(rows, zero) == 1


def test_univariate_reduction_canonical():
    ctx = FieldCtx(5)
    # (t^2 - 1)/(t - 1) reduces to t + 1
    num = rf(ctx, {(2,): 1, (0,): 4}).num
    den = rf(ctx, {(1,): 1, (0,): 4}).num
    f = RationalFunction(num, den)
    assert f.den.is_constant()
    assert f.num == rf(ctx, {(1,): 1, (0,): 1}).num


def test_multivariate_equality_cross_multiplication():
    ctx = FieldCtx(3)
    t1t2 = rf(ctx, {(1, 1): 1}, nvars=2)
    t1 = rf(ctx, {(1, 0): 1}, nvars=2)
    t2 = rf(ctx, {(0, 1): 1}, nvars=2)
    assert t1t2 / t1 == t2


def test_arithmetic_matches_evaluation_homomorphism():
    # polynomial ops verified against evaluation at random points
    ctx = FieldCtx(5)
    rng = random.Random(9)
    for _ in range(12):
        terms_a = {(rng.randint(0, 3), rng.randint(0, 3)): rng.randrange(5) for _ in range(4)}
        terms_b = {(rng.randint(0, 3), rng.randint(0, 3)): rng.randrange(5) for _ in range(4)}
        a = Poly(ctx, 2, {e: ctx.scalar(c) for e, c in terms_a.items()})
        b = Poly(ctx, 2, {e: ctx.scalar(c) for e, c in terms_b.items()})
        pt = [ctx.random_scalar(rng), ctx.random_scalar(rng)]
        assert (a + b).eval(pt) == a.eval(pt) + b.eval(pt)
        assert (a * b).eval(pt) == a.eval(pt) * b.eval(pt)
        assert (a - b).eval(pt) == a.eval(pt) - b.eval(pt)


def test_powers_match_repeated_products():
    ctx = FieldCtx(3, 2)
    t = Poly.variable(ctx, 1, 0)
    u, v = Poly.variable(ctx, 2, 0), Poly.variable(ctx, 2, 1)
    for f in (t + Poly.const(ctx, 1, ctx.gen()), u * ctx.gen() + v + Poly.const(ctx, 2, 2), Poly.zero(ctx, 1)):
        want = Poly.const(ctx, f.nvars, 1)
        for e in range(10):
            assert f**e == want, (f, e)
            want = want * f
        with pytest.raises(ValueError):
            f ** -1


def test_exact_division():
    ctx = FieldCtx(3)
    a = Poly(ctx, 2, {(1, 0): ctx.one, (0, 1): ctx.one})       # t1 + t2
    b = Poly(ctx, 2, {(1, 0): ctx.one, (0, 1): ctx.scalar(2)})  # t1 - t2
    prod = a * b
    assert prod.exact_div(a) == b
    assert prod.exact_div(b) == a
    assert (prod + Poly.const(ctx, 2, 1)).exact_div(a) is None
