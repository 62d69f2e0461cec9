import random

import numpy as np
import pytest

import kemod as K
from kemod.errors import InputError, MathRefusal
from kemod.fixdata import mainexample_module, sixteen_module
from kemod.gf import FieldCtx
from kemod.sheaf import ChowClass, SliceCache, SplittingType, monomials

F2 = FieldCtx(2)
F3 = FieldCtx(3)
F5 = FieldCtx(5)


# -- theta ---------------------------------------------------------------------


def test_theta_degree_zero_is_stacked_generators():
    w = K.w_module(3, 2, 2)
    th = K.theta_matrix(w, 0)
    d = w.dim
    # module-major with one source monomial and two target monomials:
    # row (a, Y1) = a*2, row (a, Y2) = a*2+1
    x1 = np.zeros((d, d), dtype=np.int64)
    x2 = np.zeros((d, d), dtype=np.int64)
    for a in range(d):
        x1[a] = th[2 * a]
        x2[a] = th[2 * a + 1]
    assert np.array_equal(x1, w.mats[0])
    assert np.array_equal(x2, w.mats[1])


def test_theta_of_trivial_module_is_zero():
    m = K.trivial_module(F3, 2, 2)
    for n in range(3):
        assert not K.theta_matrix(m, n).any()


def test_theta_rank_w22():
    # brute force from the explicit 3x3 generators: rank 2
    w = K.w_module(3, 2, 2)
    assert np.linalg.matrix_rank(K.theta_matrix(w, 0)) == 2


def test_theta_fibre_reproduces_x_alpha():
    # substituting a closed point's monomial values into theta gives X_alpha
    w = K.w_module(3, 3, 2)
    d = w.dim
    lam = (1, 2)
    for n in (0, 1, 2):
        th = K.theta_matrix(w, n)
        src = monomials(2, n)
        tgt = monomials(2, n + 1)
        # evaluate: fibre(v) = sum over target monomials of value * coefficient,
        # seeded through the source monomial Y1^n (value 1 on the chart lam1=1)
        s_idx = src.index((n, 0))
        fib = np.zeros((d, d), dtype=np.int64)
        for a in range(d):
            col = th[:, a * len(src) + s_idx]
            for b in range(d):
                acc = 0
                for t_i, e in enumerate(tgt):
                    acc += col[b * len(tgt) + t_i] * (lam[0] ** e[0]) * (lam[1] ** e[1])
                fib[b, a] = acc % 3
        xa = K.x_alpha(w, K.PointSpec.closed(F3, list(lam)))
        assert np.array_equal(fib, xa)


def test_theta_matrix_r3():
    m = K.trivial_module(F3, 3, 1)
    th = K.theta_matrix(m, 1)
    assert th.shape == (len(monomials(3, 2)), len(monomials(3, 1)))


# -- slice dimensions -------------------------------------------------------------


def test_slices_trivial_module():
    k1 = K.trivial_module(F3, 2, 1)
    assert K.fi_slice_dims(k1, 1, 5) == [n + 1 for n in range(6)]


def test_slices_free_module_p2():
    # the bundle is zero (no length-1 blocks), but the degree-0 slice carries
    # the socle as torsion: dims are 1, 0, 0, ...
    kE = K.free_module(F2, 2, 1)
    assert K.fi_slice_dims(kE, 1, 4) == [1, 0, 0, 0, 0]


def test_slices_w22_top_power_stabilize():
    w = K.w_module(3, 2, 2)
    dims = K.fi_slice_dims(w, 2, 6)
    # rank-1 free part: dims stabilize to n + 1
    assert dims[3:] == [n + 1 for n in range(3, 7)]


def test_slices_ambient_dimensions_r3():
    m = K.KEModule(F2, 3, [np.zeros((2, 2), dtype=np.int64)] * 3)
    cache = SliceCache(m, 1)
    assert cache.ambient(2) == 2 * 6  # dim * C(2+2, 2)


# -- splitting types ---------------------------------------------------------------


def test_w_module_splittings_match_theorem_grid():
    for p, n, d in [(2, 3, 2), (3, 4, 3), (3, 5, 2), (5, 4, 4)]:
        w = K.w_module(p, n, d)
        for i in range(1, d):
            assert K.splitting_type(w, i) == SplittingType([-n + i]), (p, n, d, i)
        assert K.splitting_type(w, d) == SplittingType([0] * (n - d + 1)), (p, n, d)


def test_mainexample_splittings():
    m = mainexample_module()
    assert K.splitting_type(m, 1) == SplittingType([-1, -1])
    assert K.splitting_type(K.dual(m), 1) == SplittingType([1, 1])


def test_zero_bundle_splitting():
    kE = K.free_module(F2, 2, 1)
    st = K.splitting_type(kE, 1)
    assert st.rank == 0 and st.human() == "0"


def test_splitting_refuses_non_cjt():
    x1 = np.zeros((2, 2), dtype=np.int64)
    x1[1, 0] = 1
    m = K.KEModule(F2, 2, [x1, np.zeros((2, 2), dtype=np.int64)])
    with pytest.raises(MathRefusal):
        K.splitting_type(m, 1)


def test_splitting_requires_rank_two():
    m = K.trivial_module(F3, 3, 2)
    with pytest.raises(InputError):
        K.splitting_type(m, 1)


def test_engines_agree_across_family():
    rng = random.Random(42)
    mods = [
        K.w_module(2, 4, 2),
        K.w_module(3, 3, 3),
        K.dual(K.w_module(3, 4, 2)),
        mainexample_module(),
        K.direct_sum(K.w_module(3, 2, 2), K.dual(K.w_module(3, 3, 2))),
        K.syzygy(F2, 2, 1),
        K.syzygy(F3, 2, 1),
    ]
    for m in mods:
        for i in range(1, m.ctx.p + 1):
            fast = K.splitting_type(m, i, engine="pencil")
            slow = K.splitting_type(m, i, engine="window")
            assert fast == slow, (m, i, fast.twists, slow.twists)


def test_explicit_window_width():
    m = mainexample_module()
    st = K.splitting_type(m, 1, window=12)
    assert st == SplittingType([-1, -1])


def test_rank_matches_jordan_multiplicity():
    for m in (K.w_module(5, 5, 3), mainexample_module(), sixteen_module()):
        jt = K.constant_jordan_type(m).jordan_type
        for i in range(1, m.ctx.p + 1):
            assert K.splitting_type(m, i).rank == jt.mult(i)


def test_duality_twist_rule():
    for m in (K.w_module(3, 4, 2), mainexample_module(), K.syzygy(F3, 2, 1)):
        md = K.dual(m)
        for i in range(1, m.ctx.p + 1):
            st = K.splitting_type(m, i)
            expect = SplittingType(-a - i + 1 for a in st.twists)
            assert K.splitting_type(md, i) == expect


def test_equal_images_radical_reduction():
    w = K.w_module(3, 5, 3)
    rs = K.radical_series(w)
    for i in range(1, 4):
        st = K.splitting_type(w, i)
        for j in range(0, i):
            radj = K.sub_as_module(w, rs[j])[0]
            assert K.splitting_type(radj, i - j) == st


def test_extension_field_window_splitting():
    # the window engine is the extension-field path; check a tiny F_4 case
    f4 = FieldCtx(2, 2)
    z, o, g = f4.zero, f4.one, f4.gen()
    # W_{2,2}-shape over F_4 with a twisted arrow: still CJT by symmetry
    x1 = [[z, z, z], [z, z, z], [z, o, z]]
    x2 = [[z, z, z], [z, z, z], [g, z, z]]
    m = K.KEModule(f4, 2, [x1, x2])
    st = K.splitting_type(m, 1)
    assert st == SplittingType([-1])


# -- line restrictions ----------------------------------------------------------------


def test_line_restriction_invertible_is_invariant():
    rng = random.Random(3)
    m = K.direct_sum(K.w_module(3, 3, 2), K.w_module(3, 2, 2))
    base = {i: K.splitting_type(m, i) for i in range(1, 4)}
    from kemod.modules import random_invertible

    for _ in range(4):
        amat = random_invertible(F3, 2, rng)
        for i in range(1, 4):
            assert K.line_restriction_splitting(m, amat, i) == base[i]


def test_line_restriction_r3_trivial():
    m = K.trivial_module(F3, 3, 1)
    lines = [[[1, 0], [0, 1], [0, 0]], [[1, 0], [0, 0], [0, 1]], [[1, 1], [0, 1], [1, 0]]]
    for line in lines:
        assert K.line_restriction_splitting(m, line, 1) == SplittingType([0])


def test_line_restriction_r3_cjt_module_generic_value():
    # a free kE-module in rank 3 restricted to many lines: constant splitting
    m = K.free_module(F2, 3, 1)
    rng = random.Random(5)
    vals = set()
    for _ in range(6):
        a = np.array([[rng.randrange(2) for _ in range(2)] for _ in range(3)])
        from kemod.linalg import rank_fp

        if rank_fp(a, 2) != 2:
            continue
        vals.add(K.line_restriction_splitting(m, a, 2))
    assert len(vals) == 1


# -- Chow ring --------------------------------------------------------------------------


def test_chern_of_line_bundle():
    st = SplittingType([4])
    c = K.chern_of_splitting(st, 2)
    assert c == ChowClass(2, (1, 4))


def test_chern_of_twist_rank_one():
    c = ChowClass(2, (1, 3))
    got = K.chern_of_twist(c, 1, 2)
    assert got == ChowClass(2, (1, 5))


def test_chern_of_twist_higher_rank():
    # rank 2 bundle on P^2 with c = 1 + c1 h + c2 h^2, twisted by n:
    # c1 -> c1 + 2n, c2 -> c2 + n c1 + n^2
    c = ChowClass(3, (1, 3, 5))
    n = 2
    got = K.chern_of_twist(c, 2, n)
    assert got == ChowClass(3, (1, 3 + 2 * n, 5 + n * 3 + n * n))


def test_whitney_product():
    a = ChowClass(2, (1, 2))
    b = ChowClass(2, (1, -2))
    assert K.whitney_product([a, b]) == ChowClass(2, (1, 0))
    full = K.chern_of_splitting(SplittingType([1, -1, 0, 0, 0]), 2)
    assert full == ChowClass(2, (1, 0))


def test_filtration_chern_identity_w43():
    # hand: 1*(-3) + 0 + 2*(-2) + 1 + 3*0 + 2*3 = 0
    w = K.w_module(3, 4, 3)
    rep = K.filtration_chern_check(w)
    assert rep["ok"] and rep["total"] == 0
    assert rep["terms"][1]["term"] == -3
    assert rep["terms"][2]["term"] == -3
    assert rep["terms"][3]["term"] == 6


def test_filtration_chern_identity_trivial_and_main():
    assert K.filtration_chern_check(K.trivial_module(F3, 2, 2))["ok"]
    assert K.filtration_chern_check(mainexample_module())["ok"]


def test_saturation_h0_shape():
    # computed h0 profile is nondecreasing with convex differences; this is
    # implied by the reconstruction identity, asserted here explicitly
    from kemod.sheaf import SliceCache, _h0_window

    m = mainexample_module()
    cache = SliceCache(m, 1)
    vals = [_h0_window(m, cache, n, 10) for n in range(-4, 5)]
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    assert all(d >= 0 for d in diffs)
    assert diffs == sorted(diffs)


def test_zero_bundle_needs_no_engine_work(monkeypatch):
    # a_3 = 0 for W_{3,2} over F_3 (Jordan type [2]^2[1]): F_3 is the zero
    # bundle, which neither engine may spend work on
    from kemod import sheaf

    def boom(*args, **kwargs):
        raise AssertionError("window engine ran for a rank-0 bundle")

    monkeypatch.setattr(sheaf, "_window_twists", boom)
    m = K.w_module(3, 3, 2)
    assert K.loewy_length(m) < 3
    assert K.splitting_type(m, 3, engine="window") == SplittingType(())
