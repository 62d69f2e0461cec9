import random

import numpy as np
import pytest

import kemod as K
from kemod import linalg
from kemod.errors import ConsistencyError, InputError, MathRefusal
from kemod.gf import FieldCtx
from kemod.sheaf import ChowClass, SliceCache, SplittingType, monomials
from kemod.subspace import Subspace
from fixdata import mainexample_module, sixteen_module

F2 = FieldCtx(2)
F3 = FieldCtx(3)
F5 = FieldCtx(5)


# -- oracle: windowed saturation on the graded slices ----------------------------
#
# The classical route to the twists, independent of the pencil engine: twisted
# global sections h0 through a divisibility window of width D, twists read off
# first differences, certified by reconstruction plus stability under doubling D.


def oracle_window_splitting(m, i, window=None):
    a_i = K.constant_jordan_type(m).jordan_type.mult(i)
    if a_i == 0:
        return SplittingType(())
    d0 = window if window is not None else m.dim + m.ctx.p
    cap = 8 * d0
    dwidth = d0
    last_err = None
    while dwidth <= cap:
        try:
            t1 = _window_twists(m, i, a_i, dwidth)
            t2 = _window_twists(m, i, a_i, 2 * dwidth)
            if t1 == t2:
                return SplittingType(t1)
            last_err = f"window {dwidth} and {2*dwidth} disagree: {t1} vs {t2}"
        except ConsistencyError as e:
            last_err = str(e)
        dwidth *= 2
    raise ConsistencyError(f"window engine failed to stabilize: {last_err}")


def _window_twists(m, i, a_i, dwidth):
    cache = SliceCache(m, i)
    h0 = {}
    n = -dwidth
    stable_run = 0
    last = None
    n_cap = dwidth + m.dim + 1
    while n <= n_cap:
        h0[n] = _h0_window(m, cache, n, dwidth)
        if last is not None:
            diff = h0[n] - h0[last]
            if diff == a_i:
                stable_run += 1
                if stable_run >= 2 and h0[n] > 0:
                    break
            else:
                stable_run = 0
        last = n
        n += 1
    else:
        raise ConsistencyError("h0 differences never stabilized at the bundle rank")
    ns = sorted(h0)
    twists = []
    prev_count = 0
    for idx in range(1, len(ns)):
        nn = ns[idx]
        count = h0[nn] - h0[ns[idx - 1]]
        if count < prev_count:
            raise ConsistencyError("h0 differences decreased; saturation window too small")
        twists.extend([-nn] * (count - prev_count))
        prev_count = count
    if len(twists) != a_i:
        raise ConsistencyError(f"recovered {len(twists)} twists for a rank-{a_i} bundle")
    for nn in ns[1:]:
        predicted = sum(max(0, a + nn + 1) for a in twists)
        if h0[nn] != predicted:
            raise ConsistencyError(f"h0({nn}) = {h0[nn]} differs from reconstruction {predicted}")
    # slice dims must grow exactly linearly over the top of the window
    top = ns[-1] + 2 * dwidth
    probe = range(max(0, top - max(3, min(m.dim, 6))), top + 1)
    dims = [cache.slice_dim(x) for x in probe]
    second = [dims[k + 2] - 2 * dims[k + 1] + dims[k] for k in range(len(dims) - 2)]
    if any(second):
        raise ConsistencyError("slice dimensions are not yet linear at the top of the window")
    return sorted(twists, reverse=True)


def _embed_rows(rows, src_deg, tgt_deg, shift, d):
    """Y_1- or Y_2-power embedding on module-major slice coordinates (r = 2).

    A vector in degree src_deg maps to degree tgt_deg; monomial index e2
    goes to e2 + shift (shift = 0 for Y_1^D, D for Y_2^D).
    """
    ns, nt = src_deg + 1, tgt_deg + 1
    out = np.zeros((rows.shape[0], d * nt), dtype=np.int64)
    for a in range(d):
        out[:, a * nt + shift : a * nt + shift + ns] = rows[:, a * ns : (a + 1) * ns]
    return out


def _h0_window(m, cache, n, dwidth):
    """dim { s in G_{n+D} : Y_2^D s in Y_1^D G_{n+D} inside G_{n+2D} },
    taken modulo the classes whose chart-1 localization vanishes.

    The raw divisibility count includes low-degree torsion classes (their
    image under Y_1^D already dies in G_{n+2D}); those represent the zero
    section, so they are quotiented out: h0 = dim S - dim(S cap T) with
    T = {s : Y_1^D s = 0 in G_{n+2D}}.
    """
    s = n + dwidth
    t = n + 2 * dwidth
    v1 = cache.upper(s)
    if v1.dim == 0:
        return 0
    u = cache.lower(t)
    F, nv = m.ctx, v1.dim
    y1m = _embed_rows(v1.basis, s, t, 0, m.dim)
    y2m = _embed_rows(v1.basis, s, t, dwidth, m.dim)
    # S: c with  c*Y2 = c'*Y1 + d*U   (columns: c | c' | d)
    kern1 = linalg.kernel_fp(np.vstack([y2m, F.neg(y1m), F.neg(u.basis)]).T, F)
    s_coords = Subspace.span(F, nv, kern1[:, :nv])
    if s_coords.dim == 0:
        return 0
    # T on S: c*Y1 = d*U
    sy1 = linalg.matmul_fp(s_coords.basis, y1m, F)
    kern2 = linalg.kernel_fp(np.vstack([sy1, F.neg(u.basis)]).T, F)
    return s_coords.dim - Subspace.span(F, s_coords.dim, kern2[:, : s_coords.dim]).dim


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
            fast = K.splitting_type(m, i)
            slow = oracle_window_splitting(m, i)
            assert fast == slow, (m, i, fast.twists, slow.twists)


def test_explicit_window_width():
    m = mainexample_module()
    st = oracle_window_splitting(m, 1, window=12)
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


def test_extension_field_splitting():
    # the pencil engine runs over every F_q; check a tiny F_4 case
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
    m = mainexample_module()
    cache = SliceCache(m, 1)
    vals = [_h0_window(m, cache, n, 10) for n in range(-4, 5)]
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    assert all(d >= 0 for d in diffs)
    assert diffs == sorted(diffs)


def test_zero_bundle_needs_no_engine_work(monkeypatch):
    # a_3 = 0 for W_{3,2} over F_3 (Jordan type [2]^2[1]): F_3 is the zero
    # bundle, which the engine may not spend work on
    from kemod import sheaf

    def boom(*args, **kwargs):
        raise AssertionError("pencil engine ran for a rank-0 bundle")

    monkeypatch.setattr(sheaf, "_pencil_splitting", boom)
    m = K.w_module(3, 3, 2)
    assert K.loewy_length(m) < 3
    assert K.splitting_type(m, 3) == SplittingType(())


def test_splittings_and_generic_kernels_share_kernel_bases(monkeypatch):
    # W_{4,3} over F_3 has Jordan type [3]^2[2][1], so the splittings of
    # F_1, F_2, F_3 build the kernel bases of every power 1..3
    from kemod import pencil

    m = K.w_module(3, 4, 3)
    for i in range(1, 4):
        K.splitting_type(m, i)
    calls = []
    real = pencil.graded_kernel_basis
    monkeypatch.setattr(pencil, "graded_kernel_basis", lambda *a: calls.append(a) or real(*a))
    for n in range(1, 4):
        K.generic_kernel_power(m, n)
    assert calls == []


def test_pencil_images_come_from_one_product(monkeypatch):
    # with the kernel bases built, the splitting of F_i multiplies the pencil
    # once, by all generators of power i + 1 side by side
    from kemod import pencil, sheaf

    for m in (K.w_module(3, 4, 3), K.direct_sum(K.w_module(5, 4, 3), K.dual(K.w_module(5, 3, 2)))):
        dec = K.constant_jordan_type(m)
        for i in range(1, m.ctx.p + 1):
            if not dec.jordan_type.mult(i):
                continue
            for ell in (i - 1, i, i + 1):
                m.kernel_generators(ell)
            calls = []
            real = pencil.pm_mul
            monkeypatch.setattr(pencil, "pm_mul", lambda *a: calls.append(a[1].shape) or real(*a))
            sheaf._pencil_splitting(m, i, dec.jordan_type.mult(i))
            monkeypatch.undo()
            upper = m.kernel_generators(i + 1)
            assert calls == ([(m.dim, len(upper), max(w.deg for w in upper) + 1)] if upper else [])
