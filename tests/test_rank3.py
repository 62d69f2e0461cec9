"""Higher-rank (r >= 3) paths: constant-rank decisions on the rational
points, exact generic ranks and kernels via lattices of points, slice
dimensions, and line restrictions.

The library evaluates the points of both r >= 3 sweeps as stacks, ranked by
one fraction-free elimination; the per-point loops over the full grid it
replaced are kept here as oracles (``oracle_grid_ranks``,
``oracle_jrank_decision``), and verdicts and witnesses must match them
exactly.  Generic kernels and images are held to the symbolic
route over F_q(t_2..t_r) (``symbolic.genker_symbolic``)."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kemod as K
from kemod import linalg, modules
from kemod import genker
from kemod.errors import ConsistencyError, InputError
from kemod.gf import FieldCtx, extension
from kemod.modules import JRankDecision
from kemod.sheaf import monomials
from symbolic import generic_rank, genker_symbolic

F2 = FieldCtx(2)
F3 = FieldCtx(3)


def rank3_free():
    return K.free_module(F2, 3, 1)


def test_free_module_rank3_probably_constant():
    m = rank3_free()
    dec = K.constant_jrank_decide(m, 1)
    assert dec.kind == "probably_constant"
    assert dec.rank == 4  # dim 8, kernel dim 4 at every point
    cjt = K.constant_jordan_type(m)
    assert cjt.kind == "probably_cjt"
    assert repr(cjt.jordan_type) == "[2]^4"


def test_rank3_nonconstant_witness_found_over_small_field():
    # jump locus is a coordinate hyperplane; three of the seven points of
    # P^2(F_2) lie on it, and the first of them in order is the witness
    j = np.zeros((2, 2), dtype=np.int64)
    j[1, 0] = 1
    z = np.zeros((2, 2), dtype=np.int64)
    m = K.KEModule(F2, 3, [j, z, z])
    dec = K.constant_jrank_decide(m, 1)
    assert dec.kind == "not_constant"
    assert dec.witness == {"point": "(0, 1, 0)", "rank_there": 0, "generic_rank": 1}


def test_generic_ranks_match_symbolic_r3():
    # exact grid ranks vs honest multivariate rational-function elimination
    x1 = np.zeros((4, 4), dtype=np.int64)
    x1[1, 0] = 1
    x1[3, 2] = 1
    x2 = np.zeros((4, 4), dtype=np.int64)
    x2[2, 0] = 1
    x2[3, 1] = 1
    x3 = (x1 + x2) % 2  # commuting square with a dependent third generator
    m2 = K.KEModule(F2, 3, [x1, x2, x3])
    assert m2.validate().ok
    for m in (rank3_free(), m2):
        assert generic_rank(m) == modules.generic_power_ranks(m, 1)[0]


def test_genker_r3_matches_symbolic():
    m = rank3_free()
    rep = K.generic_kernel(m)
    assert rep.subspace == genker_symbolic(m, 1)
    # the generic kernel of a free module is its radical (equal images)
    assert rep.subspace == K.radical(m).sum(K.socle(m))


def test_fi_slice_dims_r3_trivial():
    k1 = K.trivial_module(F3, 3, 1)
    dims = K.fi_slice_dims(k1, 1, 4)
    assert dims == [len(monomials(3, n)) for n in range(5)]


def test_line_restrictions_of_free_rank3():
    m = rank3_free()
    # every line pulls the (probably) constant module back to kE in rank 2
    lines = [
        [[1, 0], [0, 1], [0, 0]],
        [[0, 1], [1, 0], [1, 1]],
        [[1, 0], [1, 1], [0, 1]],
    ]
    vals = {K.line_restriction_splitting(m, ln, 2) for ln in lines}
    assert len(vals) == 1
    (st,) = vals
    assert st.rank == 4  # [2]^4 blocks: a_2 = 4


def test_jordan_at_r3_extension_point():
    m = rank3_free()
    f4 = FieldCtx(2, 2)
    g = f4.gen()
    jt = K.jordan_type(m, K.PointSpec.closed(f4, [f4.one, g, g * g]))
    assert repr(jt) == "[2]^4"


def test_genimg_r3_duality_only():
    # the images of X_alpha on the free module vary with the point; their
    # intersection is exactly the socle (hand check: a degree-2 monomial
    # X_1 X_2 lies in Im(X_alpha) only where lambda_3 = 0)
    m = rank3_free()
    img = K.generic_image_power(m, 1)
    assert img.dim == 1
    assert img == K.socle(m)
    assert img == K.generic_kernel(K.dual(m)).subspace.perp()


def test_rational_points_are_searched_before_random_samples():
    # the rank of X_alpha drops only on the line l_1 = 0; random points of a
    # large extension miss it, the seven points of P^2(F_2) do not
    j = np.zeros((2, 2), dtype=np.int64)
    j[1, 0] = 1
    z = np.zeros((2, 2), dtype=np.int64)
    dec = K.constant_jordan_type(K.KEModule(F2, 3, [j, z, z]))
    assert dec.kind == "not_cjt"
    assert dec.witness["rank_there"] < dec.witness["generic_rank"]
    free = K.constant_jordan_type(rank3_free())
    assert free.kind == "probably_cjt" and repr(free.jordan_type) == "[2]^4"


def test_rank_grid_swept_once_per_module(monkeypatch):
    from kemod import modules

    widths = []
    real = modules._grid_ranks
    monkeypatch.setattr(modules, "_grid_ranks", lambda m, jmax: widths.append(jmax) or real(m, jmax))
    dec = K.constant_jordan_type(K.free_module(F2, 3))
    assert widths == [1]
    assert dec.kind == "probably_cjt" and repr(dec.jordan_type) == "[2]^4"
    jb = np.eye(3, k=-1, dtype=np.int64)  # one Jordan block of size 3
    m = K.KEModule(F3, 3, [jb, np.zeros_like(jb), np.zeros_like(jb)])
    assert modules.generic_power_ranks(m, 2) == [2, 1]
    assert modules.generic_power_ranks(m, 1) == [2] and modules.generic_power_ranks(m, 3) == [2, 1, 0]
    assert widths == [1, 2]


def test_rank_grid_cap_counts_the_power_p():
    # jmax = p = 2 at dim 274 asks for a 549 x 549 grid, over the cap, even
    # though the rank of X_alpha^2 is 0 without any grid
    from kemod import modules

    m = K.trivial_module(F2, 3, 274)
    with pytest.raises(InputError):
        modules.generic_power_ranks(m, 2)


@pytest.mark.parametrize("ctx", [F3, FieldCtx(5)], ids=["F3", "F5"])
def test_decision_sweeps_the_grid_once_at_p_minus_one(monkeypatch, ctx):
    # kE / rad^2 E (dim 4): X_alpha has rank 1 at every point and squares to 0
    from kemod import modules

    mats = []
    for i in range(3):
        x = np.zeros((4, 4), dtype=np.int64)
        x[1 + i, 0] = 1
        mats.append(x)
    widths = []
    real = modules._grid_ranks
    monkeypatch.setattr(modules, "_grid_ranks", lambda m, jmax: widths.append(jmax) or real(m, jmax))
    dec = K.constant_jordan_type(K.KEModule(ctx, 3, mats))
    assert widths == [1, ctx.p - 1]  # j = 1 first, then one sweep for every j
    assert dec.kind == "probably_cjt" and repr(dec.jordan_type) == "[2][1]^2"
    # a caller that needs j = 1 only gets the narrowest grid
    widths.clear()
    m = K.KEModule(ctx, 3, mats)
    assert modules.generic_power_ranks(m, 1) == [1]
    assert K.constant_jrank_decide(m, 1).kind == "probably_constant"
    assert widths == [1]


def test_a_module_not_cjt_at_j1_sweeps_no_wider_grid(monkeypatch):
    # X_1 = J_4 + J_4, X_2 = X_3 = 0 over F_5: rank 6 off the plane l_1 = 0,
    # rank 0 on it; the grid for every j < 5 has 33^2 points, that for j = 1 9^2
    from kemod import modules

    jb = np.eye(4, k=-1, dtype=np.int64)
    x1 = np.kron(np.eye(2, dtype=np.int64), jb)
    m = K.KEModule(FieldCtx(5), 3, [x1, np.zeros_like(x1), np.zeros_like(x1)])
    widths = []
    real = modules._grid_ranks
    monkeypatch.setattr(modules, "_grid_ranks", lambda m, jmax: widths.append(jmax) or real(m, jmax))
    dec = K.constant_jordan_type(m)
    assert widths == [1]
    assert dec.kind == "not_cjt" and dec.witness["j"] == 1
    assert dec.witness["point"] == "(0, 1, 0)"
    assert dec.witness["rank_there"] == 0 and dec.witness["generic_rank"] == 6


# -- the per-point loops the stacked sweeps replaced ----------------------------------


def oracle_grid_ranks(m, jmax):
    """Generic ranks as the maximum over the grid, one point at a time."""
    F = m.ctx
    jmax = min(jmax, F.p)
    bound = modules._grid_bound(m, jmax)
    mdeg = 1
    while F.q**mdeg < bound:
        mdeg += 1
    fld = extension(F, mdeg)
    mats = modules.mats_over(m, fld)
    ranks = [0] * jmax
    for tup in itertools.product(range(bound), repeat=m.r - 1):
        a = modules._combine(fld, mats, (1,) + tup)
        pw = a
        for j in range(1, jmax + 1):
            if j > 1:
                pw = linalg.matmul_fp(pw, a, fld)
            ranks[j - 1] = max(ranks[j - 1], linalg.rank_fp(pw, fld))
    return ranks


def oracle_jrank_decision(m, j):
    """The r >= 3 decision with ``rank_at_point`` at each rational point in
    order; the generic rank is the library's, which the tests below hold to
    ``oracle_grid_ranks``."""
    F = m.ctx
    if j == F.p:
        return JRankDecision("constant", j, 0)
    rho = modules.generic_power_ranks(m, j)[j - 1]
    if (F.q**m.r - 1) // (F.q - 1) <= modules.RATIONAL_POINTS:
        for lead in range(m.r):
            for rest in itertools.product(range(F.q), repeat=m.r - 1 - lead):
                coords = (F.zero,) * lead + (F.one,) + tuple(map(F.decode, rest))
                rk = modules.rank_at_point(m, coords, j)
                if rk != rho:
                    witness = {"point": repr(coords), "rank_there": rk, "generic_rank": rho}
                    return JRankDecision("not_constant", j, rho, witness=witness)
    return JRankDecision("probably_constant", j, rho)


# -- the stacked elimination against rank_fp ---------------------------------------

STACK_FIELDS = [
    FieldCtx(2), FieldCtx(3), FieldCtx(5), FieldCtx(2, 2), FieldCtx(3, 2),
    extension(FieldCtx(2), 21), extension(FieldCtx(3), 13),
]


@pytest.mark.parametrize("F", STACK_FIELDS, ids=repr)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_stack_ranks_equal_rank_fp_per_slice(F, data):
    B, n, c = (data.draw(st.integers(0, hi)) for hi in (5, 5, 5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    stack = rng.integers(0, F.q, (B, n, c), dtype=np.int64)
    for s in range(B):
        kind = data.draw(st.sampled_from(["dense", "sparse", "zero", "deficient"]))
        if kind == "sparse":
            stack[s] *= rng.random((n, c)) < 0.3
        elif kind == "zero":
            stack[s] = 0
        elif kind == "deficient" and min(n, c) > 1:
            inner = int(rng.integers(0, min(n, c)))
            stack[s] = F.matmul(rng.integers(0, F.q, (n, inner)), rng.integers(0, F.q, (inner, c)))
    got = modules._stack_ranks(F, stack)
    assert got.shape == (B,)
    assert got.tolist() == [linalg.rank_fp(x, F) for x in stack]


@pytest.mark.parametrize("F", STACK_FIELDS, ids=repr)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_point_ranks_equal_rank_fp_of_each_power(F, data):
    r, d, B = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    powers = sorted(data.draw(st.sets(st.integers(1, 3), min_size=1)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mats = [rng.integers(0, F.q, (d, d), dtype=np.int64) * (rng.random((d, d)) < 0.5) for _ in range(r)]
    points = rng.integers(0, F.q, (B, r), dtype=np.int64)
    got = modules._point_ranks(F, mats, points.tolist(), powers)
    assert got.shape == (B, len(powers))
    for pt, row in zip(points, got):
        a = modules._combine(F, mats, pt.tolist())
        assert row.tolist() == [linalg.rank_fp(linalg.matpow_fp(a, j, F), F) for j in powers]


# -- stacked sweeps against the per-point loops ----------------------------------------


def _sq0(F, r, scale=None):
    """kE / rad^2 kE with X_i e_0 = c_i e_i."""
    mats = []
    for i in range(r):
        x = np.zeros((r + 1, r + 1), dtype=np.int64)
        x[1 + i, 0] = 1 if scale is None else scale[i]
        mats.append(x)
    return K.KEModule(F, r, mats)


def _disguised(m, seed):
    F = m.ctx
    P = modules.random_invertible(F, m.dim, random.Random(seed))
    Pi = linalg.inv_fp(P, F)
    return K.KEModule(F, m.r, [linalg.matmul_fp(linalg.matmul_fp(P, x, F), Pi, F) for x in m.mats])


def _block(F, r, sizes, which=0):
    """Jordan blocks of the given sizes as X_which, the other X_i zero: the
    rank drops on the hyperplane l_which = 0."""
    d = sum(sizes)
    x = np.zeros((d, d), dtype=np.int64)
    at = 0
    for s in sizes:
        x[at : at + s, at : at + s] = np.eye(s, k=-1, dtype=np.int64)
        at += s
    return K.KEModule(F, r, [x if i == which else np.zeros_like(x) for i in range(r)])


def _pair_with_f4_slope(r):
    # X_1 = E_21, X_2 = g E_21: the rank drops where l_1 + g l_2 = 0, at
    # points of P^{r-1}(F_4) only
    F4 = FieldCtx(2, 2)
    x = np.zeros((2, 2), dtype=np.int64)
    x[1, 0] = 1
    return K.KEModule(F4, r, [x, F4.mul(F4.gen().v, x)] + [np.zeros_like(x)] * (r - 2))


def _three_generators():
    x1 = np.zeros((4, 4), dtype=np.int64)
    x1[1, 0] = x1[3, 2] = 1
    x2 = np.zeros((4, 4), dtype=np.int64)
    x2[2, 0] = x2[3, 1] = 1
    return K.KEModule(F2, 3, [x1, x2, (x1 + x2) % 2])


F4, F5 = FieldCtx(2, 2), FieldCtx(5)
ORACLE_MODULES = {
    "F2 P(kE)": lambda: _disguised(K.free_module(F2, 3), 1),
    "F2 fault": lambda: _block(F2, 3, [2]),
    "F2 fault(l2)": lambda: _disguised(_block(F2, 3, [2, 1], which=1), 2),
    "F2 sq0": lambda: _disguised(_sq0(F2, 3), 3),
    "F2 three generators": _three_generators,
    "F2 sq0+trivial": lambda: K.direct_sum(_sq0(F2, 3), K.trivial_module(F2, 3, 2)),
    "F3 sq0": lambda: _disguised(_sq0(F3, 3), 4),
    "F3 J3": lambda: _disguised(_block(F3, 3, [3, 1]), 5),
    "F3 J2+J2": lambda: _block(F3, 3, [2, 2], which=2),
    "F5 sq0": lambda: _disguised(_sq0(F5, 3), 6),
    "F5 J4": lambda: _block(F5, 3, [4]),
    "F4 sq0": lambda: _disguised(_sq0(F4, 3, [1, F4.gen().v, 1]), 7),
    "F4 slope": lambda: _pair_with_f4_slope(3),
    "F4 fault": lambda: _block(F4, 3, [2, 2]),
    "r4 F2 sq0": lambda: _disguised(_sq0(F2, 4), 8),
    "r4 F2 fault": lambda: _block(F2, 4, [2], which=3),
    "r4 F3 sq0": lambda: _sq0(F3, 4),
    "r4 F3 J3": lambda: _block(F3, 4, [3]),
    "r4 F4 slope": lambda: _pair_with_f4_slope(4),
    "r4 F5 fault": lambda: _block(F5, 4, [2], which=1),
}


@pytest.mark.parametrize("name", sorted(ORACLE_MODULES))
def test_stacked_sweeps_match_the_per_point_loops(monkeypatch, name):
    build = ORACLE_MODULES[name]
    m = build()
    assert m.validate().ok
    p = m.ctx.p
    # the grid at j = p only where it stays small
    want_grid = {jmax: oracle_grid_ranks(m, jmax) for jmax in {p - 1, p if m.dim * p <= 8 else 1}}
    want = {j: oracle_jrank_decision(m, j) for j in range(1, p)}
    for cells in (modules.STACK_CELLS, 2 * m.dim * m.dim + 1, 1):
        monkeypatch.setattr(modules, "STACK_CELLS", cells)
        for jmax, ranks in want_grid.items():
            assert modules._grid_ranks(build(), jmax) == ranks, (cells, jmax)
        fresh = build()
        for j, dec in want.items():
            got = modules._jrank_decision(fresh, j)
            assert got == dec and repr(got) == repr(dec), (cells, j)


def test_oracle_set_covers_both_kinds_of_witness():
    # a drop caught at a rational point, and verdicts of both kinds
    fault = ORACLE_MODULES["F2 fault"]()
    dec = oracle_jrank_decision(fault, 1)
    assert dec.kind == "not_constant" and dec.witness["point"] == "(0, 1, 0)"
    kinds = {
        oracle_jrank_decision(ORACLE_MODULES[n](), 1).kind
        for n in ("F4 slope", "r4 F4 slope", "F3 sq0", "r4 F2 sq0")
    }
    assert kinds == {"not_constant", "probably_constant"}


def test_sweep_stops_at_the_first_chunk_with_a_drop(monkeypatch):
    calls = []
    real = modules._point_ranks
    monkeypatch.setattr(modules, "_point_ranks", lambda *a: calls.append(len(a[2])) or real(*a))
    monkeypatch.setattr(modules, "STACK_CELLS", 4 * 3)  # three points per chunk at dim 2
    m = ORACLE_MODULES["F2 fault"]()
    dec = modules._jrank_decision(m, 1)
    assert dec.witness["point"] == "(0, 1, 0)"
    # the chunks of the lattice of degree dim = 2 in r - 1 = 2 variables,
    # binomial(2 + 2, 2) = 6 points; then the first of the seven rational
    # points' chunks holds (0, 1, 0), the fifth point in draw order
    lattice = math.comb(m.dim + m.r - 1, m.r - 1)
    assert calls[-2:] == [3, 3] and sum(calls) == lattice + 6


@pytest.mark.parametrize("F", [F2, F3, F4], ids=repr)
def test_decision_ranks_points_over_the_base_field_only(monkeypatch, F):
    # once the generic ranks are known, every point the decision ranks is a
    # point of P^2(F_q): no extension field is built for it
    m = _sq0(F, 3)
    modules.generic_power_ranks(m, F.p - 1)
    fields = []
    real = modules._point_ranks
    monkeypatch.setattr(modules, "_point_ranks", lambda fld, *a: fields.append(fld) or real(fld, *a))
    assert K.constant_jordan_type(m).kind == "probably_cjt"
    assert fields and all(fld is m.ctx for fld in fields)


def test_a_drop_off_the_rational_points_tested_is_not_certified():
    # the rank drops on the hyperplane l_1 + g l_2 = 0 of P^3(F_4), whose 85
    # points are more than are tested: the verdict stays probable, and no
    # number is attached to it
    m = ORACLE_MODULES["r4 F4 slope"]()
    dec = K.constant_jrank_decide(m, 1)
    assert dec.kind == "probably_constant" and dec.witness is None
    assert not hasattr(dec, "confidence")
    cjt = K.constant_jordan_type(m)
    assert cjt.kind == "probably_cjt" and not hasattr(cjt, "confidence")


# -- generic kernels and images on the lattice against the symbolic route -----------


GENKER_MODULES = {
    "kE F2 r3": lambda: K.free_module(F2, 3),
    "kE F2 r4": lambda: K.free_module(F2, 4),
    "kE F3 r3": lambda: K.free_module(F3, 3),
    "kE F4 r3": lambda: K.free_module(F4, 3),
    **ORACLE_MODULES,
}


@pytest.mark.parametrize("name", sorted(GENKER_MODULES))
def test_lattice_kernels_and_images_match_the_symbolic_route(name):
    m = GENKER_MODULES[name]()
    md = K.dual(m)
    for n in range(1, m.ctx.p + 1):
        rep = K.generic_kernel_power(m, n)
        assert rep.method == "lattice-point-kernels" and rep.certified
        assert rep.subspace == genker_symbolic(m, n), n
        # the image through duality; at dim 27 the dual's rank lattice for
        # n = 2 alone takes seconds, so kE over F_3 checks n = 1 and n = p
        if m.dim <= 16 or n in (1, m.ctx.p):
            assert K.generic_image_power(m, n) == genker_symbolic(md, n).perp(), n


def test_generic_kernels_follow_a_change_of_basis():
    # C(P M P^-1) = P C(M) on kE over F_3 (dim 27), out of the symbolic
    # route's reach after the change of basis
    m = K.free_module(F3, 3)
    P = modules.random_invertible(F3, m.dim, random.Random(1))
    Pi = linalg.inv_fp(P, F3)
    moved = K.KEModule(F3, 3, [linalg.matmul_fp(linalg.matmul_fp(P, x, F3), Pi, F3) for x in m.mats])
    want = K.generic_kernel_power(m, 1).subspace
    got = K.generic_kernel_power(moved, 1).subspace
    assert got.dim == want.dim == 23
    assert got == K.Subspace.span(F3, m.dim, linalg.matmul_fp(want.basis, P.T, F3))


def test_a_wrong_generic_rank_is_an_error(monkeypatch):
    # one too small: lattice points rank above it; one too large: none reaches it
    real = modules.generic_power_ranks
    for shift in (-1, 1):
        monkeypatch.setattr(genker, "generic_power_ranks", lambda m, n: real(m, n)[:-1] + [real(m, n)[-1] + shift])
        with pytest.raises(ConsistencyError):
            K.generic_kernel_power(K.free_module(F2, 3), 1)


def test_rank_one_kernels_come_from_the_one_point_lattice():
    jb = np.eye(3, k=-1, dtype=np.int64)
    m = K.KEModule(F3, 1, [jb])
    for n in (1, 2, 3):
        rep = K.generic_kernel_power(m, n)
        assert rep.method == "lattice-point-kernels"
        assert rep.subspace == K.Subspace.span(F3, 3, linalg.kernel_fp(linalg.matpow_fp(jb, n, F3), F3))
        assert rep.subspace == genker_symbolic(m, n)
