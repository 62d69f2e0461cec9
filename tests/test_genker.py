import random

import numpy as np
import pytest

import kemod as K
from kemod.errors import InputError
from kemod.gf import FieldCtx
from kemod.modules import is_invariant
from kemod.subspace import Subspace
from fixdata import mainexample_module, sixteen_module
from oracles import apply_generator
from symbolic import genker_symbolic

F2 = FieldCtx(2)
F3 = FieldCtx(3)
F5 = FieldCtx(5)


# -- generic kernels -------------------------------------------------------------


def test_genker_of_w_modules_is_everything():
    # W-modules have the equal images property, and the generic kernel is the
    # largest such submodule, so it is the whole module
    for p, n, d in [(2, 3, 2), (3, 4, 3), (5, 5, 3)]:
        w = K.w_module(p, n, d)
        assert K.generic_kernel(w).dim == w.dim


def test_genker_of_trivial_is_everything():
    m = K.trivial_module(F3, 2, 4)
    for n in range(1, 4):
        assert K.generic_kernel_power(m, n).dim == 4


def test_genker_trivial_one_dim():
    k = K.trivial_module(F3, 2, 1)
    assert K.generic_kernel(k).dim == 1


def test_genker_mainexample_power_two():
    m = mainexample_module()
    rep = K.generic_kernel_power(m, 2)
    assert rep.dim == 6
    assert rep.certified and rep.method == "generic-point-coefficients"
    # decomposes into two W_{2,2}: checked in decomp tests / acceptance


def test_genker_power_out_of_range():
    m = mainexample_module()
    with pytest.raises(InputError):
        K.generic_kernel_power(m, 4)


def test_genker_contains_point_kernels_for_constant_rank():
    # Prop-level invariant: for constant n-rank modules, K^n contains
    # Ker(X_alpha^n) at 200 sampled points, base and extension fields alike
    rng = random.Random(0)
    mods = [K.w_module(3, 4, 2), mainexample_module(), K.syzygy(F2, 2, 1)]
    checked = 0
    for m in mods:
        ctx = m.ctx
        ext = FieldCtx(ctx.p, 2)
        for n in (1, 2):
            if n >= ctx.p + 1:
                continue
            dec = K.constant_jrank_decide(m, n)
            if dec.kind != "constant":
                continue
            ker = K.generic_kernel_power(m, n).subspace
            for _ in range(25):
                coords = [ctx.random_scalar(rng) for _ in range(2)]
                if not any(bool(c) for c in coords):
                    continue
                a = K.x_alpha(m, K.PointSpec(tuple(coords), ctx))
                apow = np.linalg.matrix_power(a, n) % ctx.p
                from kemod.linalg import kernel_fp

                point_ker = Subspace.span(ctx, m.dim, kernel_fp(apow, ctx.p))
                assert ker.contains(point_ker)
                checked += 1
            # extension points: check the base-rational part of the kernel
            for _ in range(20):
                coords = [ext.random_scalar(rng) for _ in range(2)]
                if not any(bool(c) for c in coords):
                    continue
                from kemod.modules import rank_at_point

                # nullity at the extension point must match the generic one
                # (constant rank extends to the algebraic closure)
                assert m.dim - rank_at_point(m, tuple(coords), n) == m.dim - dec.rank
                checked += 1
    assert checked >= 200


def test_genker_symbolic_matches_pencil_route():
    # the multivariate rational-function route must agree with the graded
    # minimal-basis route on r = 2 inputs
    for m in (K.w_module(3, 3, 2), mainexample_module(), K.dual(K.w_module(2, 3, 2))):
        for n in (1, 2):
            fast = K.generic_kernel_power(m, n).subspace
            sym = genker_symbolic(m, n)
            assert fast == sym


def test_genker_rank_three():
    # r = 3: K^1 of the rank-3 trivial extension behaves
    ctx = F2
    mats = [np.zeros((2, 2), dtype=np.int64) for _ in range(3)]
    mats[0][1, 0] = 1
    m = K.KEModule(ctx, 3, mats)
    rep = K.generic_kernel(m)
    # kernel of X_alpha = span(e1) generically; sum over points = e1 plus ...
    assert rep.dim >= 1
    assert is_invariant(m, rep.subspace)


def test_genker_invariance_and_eip():
    # the generic kernel itself has the equal images property
    for m in (mainexample_module(), sixteen_module(), K.dual(K.w_module(3, 4, 2))):
        ksub = K.sub_as_module(m, K.generic_kernel(m).subspace)[0]
        dec = K.equal_images_decide(ksub)
        assert dec.verdict is True


# -- generic images ----------------------------------------------------------------


def test_genimg_top_power_vanishes():
    for m in (K.w_module(3, 3, 2), mainexample_module()):
        assert K.generic_image_power(m, m.ctx.p).dim == 0


def test_genimg_trivial():
    m = K.trivial_module(F5, 2, 3)
    for n in (1, 2, 3):
        assert K.generic_image_power(m, n).dim == 0


def test_genimg_dual_mainexample_quotient_shape():
    # M#/I^2(M#) is two copies of the dual W_{2,2}
    m = K.dual(mainexample_module())
    img = K.generic_image_power(m, 2)
    q = K.quotient_module(m, img)
    assert q.dim == 6
    dw = K.dual(K.w_module(3, 2, 2))
    target = K.direct_sum(dw, dw)
    assert K.iso_probe(q, target, seed=3).isomorphic


def test_genimg_duality_disagreement_is_loud():
    # on a module whose rank jumps, the duality route and the literal
    # all-points intersection genuinely differ; that must surface as a
    # consistency error, never a silent pick
    from kemod.errors import ConsistencyError

    x1 = np.zeros((2, 2), dtype=np.int64)
    x1[1, 0] = 1
    m = K.KEModule(F3, 2, [x1, x1])  # X_alpha = (l1 + l2) J: rank drops at (1, 2)
    with pytest.raises(ConsistencyError):
        K.generic_image_power(m, 1)


def test_genimg_methods_agree_on_constant_rank():
    for m in (K.w_module(3, 4, 3), K.dual(K.w_module(5, 3, 2)), mainexample_module()):
        for n in range(1, m.ctx.p + 1):
            K.generic_image_power(m, n)  # raises on disagreement


# -- J operators and the filtration --------------------------------------------------


def test_j_inverse_of_full_is_full():
    m = mainexample_module()
    full = Subspace.full(F3, m.dim)
    assert K.j_inverse(m, full, 2) == full


def test_j_power_one_is_radical():
    for m in (mainexample_module(), K.w_module(3, 4, 3)):
        full = Subspace.full(m.ctx, m.dim)
        assert K.j_power(m, full, 1) == K.radical(m)


def test_j_ops_require_invariance():
    m = mainexample_module()
    bad = Subspace.span(F3, m.dim, np.eye(m.dim, dtype=np.int64)[:1])
    with pytest.raises(InputError):
        K.j_power(m, bad, 1)


def test_x_alpha_inverse_equals_j_inverse():
    # for constant-rank modules and sampled points:
    # {v : X_alpha^j v in K(M)} = J^{-j} K(M)
    rng = random.Random(4)
    for m in (mainexample_module(), sixteen_module()):
        ctx = m.ctx
        ker = K.generic_kernel(m).subspace
        for j in (1, 2):
            layer = K.j_inverse(m, ker, j)
            for _ in range(8):
                coords = [ctx.random_scalar(rng) for _ in range(2)]
                if not any(bool(c) for c in coords):
                    continue
                a = K.x_alpha(m, K.PointSpec(tuple(coords), ctx))
                apow = np.linalg.matrix_power(a, j) % ctx.p
                # {v : apow v in ker}: kernel of compose(quotient, apow)
                perp = ker.perp()
                if perp.dim == 0:
                    pre = Subspace.full(ctx, m.dim)
                else:
                    from kemod.linalg import kernel_fp, matmul_fp

                    cond = matmul_fp(np.asarray(perp.basis), apow, ctx.p)
                    pre = Subspace.span(ctx, m.dim, kernel_fp(cond, ctx.p))
                assert pre == layer


def test_filtration_w_modules():
    # K = M for W-modules: negative layers are everything, positive are radicals
    w = K.w_module(3, 4, 3)
    layers = {l.index: l.subspace for l in K.generic_kernel_filtration(w)}
    rs = K.radical_series(w)
    for j in range(0, 3):
        assert layers[-j].dim == w.dim
        assert layers[j] == rs[j] if j < len(rs) else layers[j].dim == 0


def test_filtration_quotients_semisimple():
    # all generators act as zero on successive filtration quotients
    for m in (mainexample_module(), sixteen_module()):
        layers = K.generic_kernel_filtration(m)
        for small, big in zip(layers, layers[1:]):
            for i in range(m.r):
                img = apply_generator(m, i, big.subspace)
                assert small.subspace.contains(img.intersect(big.subspace))


def test_filtration_duality_dimensions():
    # dim(J^a K(M#)/J^b K(M#)) = dim(J^{-b+1} K(M)/J^{-a+1} K(M))
    for m in (mainexample_module(), sixteen_module(), K.w_module(3, 5, 2)):
        md = K.dual(m)
        for a in range(-2, 3):
            for b in range(a, 3):
                lhs = K.filtration_layer(md, a).dim - K.filtration_layer(md, b).dim
                rhs = K.filtration_layer(m, -b + 1).dim - K.filtration_layer(m, -a + 1).dim
                assert lhs == rhs, (a, b)


def test_layer_module_endpoints():
    m = sixteen_module()
    # M = J^{-1} K / J^2 K for the sixteen-dimensional example
    lay = K.layer_module(m, -1, 2)
    assert lay.dim == m.dim
    assert K.iso_probe(lay, m, seed=0).isomorphic


def test_layer_module_index_validation():
    m = mainexample_module()
    with pytest.raises(InputError):
        K.layer_module(m, 2, -1)


# -- equal images decisions ------------------------------------------------------------


def test_w_modules_have_equal_images():
    for p, n, d in [(2, 4, 2), (3, 5, 3), (5, 4, 4)]:
        assert K.equal_images_decide(K.w_module(p, n, d)).verdict is True


def test_dual_w_modules_lack_equal_images():
    for n in (2, 3, 4):
        dec = K.equal_images_decide(K.dual(K.w_module(3, n, 2)))
        assert dec.verdict is False


def test_trivial_module_has_equal_images():
    assert K.equal_images_decide(K.trivial_module(F3, 2, 1)).verdict is True


def test_equal_n_images():
    m = mainexample_module()
    # I^2(M) = 0 but generic 2-rank is 1: not equal 2-images
    dec = K.equal_n_images_decide(m, 2)
    assert dec.verdict is False
    # W-modules have every equal-images property in range
    w = K.w_module(3, 4, 3)
    for n in (1, 2):
        assert K.equal_n_images_decide(w, n).verdict is True


# -- inclusion chains ---------------------------------------------------------------


def test_inclusion_chains_on_suite():
    for m in (K.w_module(3, 4, 3), K.w_module(5, 4, 2), mainexample_module(), sixteen_module()):
        rep = K.inclusion_chain_check(m)
        assert not rep["skipped"]
        bad = [c for c in rep["checks"] if not c["ok"]]
        assert not bad, bad


def test_inclusion_chain_strictness_on_sixteen():
    # K^2 is strictly smaller than J^{-1} K here
    m = sixteen_module()
    k2 = K.generic_kernel_power(m, 2).subspace
    layer = K.filtration_layer(m, -1)
    assert layer.contains(k2)
    assert k2.dim == 15 and layer.dim == 16


def test_inclusion_chain_skips_nonconstant():
    x1 = np.zeros((2, 2), dtype=np.int64)
    x1[1, 0] = 1
    m = K.KEModule(F2, 2, [x1, np.zeros((2, 2), dtype=np.int64)])
    rep = K.inclusion_chain_check(m)
    assert rep["skipped"]


def test_jranks_of_genker_match_module():
    # the kernels of X_alpha^j on K^n(M) and on M coincide for j <= n, so the
    # nullities agree everywhere (and constancy of j-rank transfers)
    rng = random.Random(7)
    for m in (mainexample_module(), sixteen_module()):
        ctx = m.ctx
        for n in (1, 2):
            ksub = K.sub_as_module(m, K.generic_kernel_power(m, n).subspace)[0]
            for j in range(1, n + 1):
                from kemod.modules import generic_power_ranks

                assert (
                    ksub.dim - generic_power_ranks(ksub, j)[j - 1]
                    == m.dim - generic_power_ranks(m, j)[j - 1]
                )
                for _ in range(5):
                    coords = [ctx.random_scalar(rng) for _ in range(2)]
                    if not any(bool(c) for c in coords):
                        continue
                    from kemod.modules import rank_at_point

                    d_m = m.dim - rank_at_point(m, tuple(coords), j)
                    d_k = ksub.dim - rank_at_point(ksub, tuple(coords), j)
                    assert d_m == d_k


def test_kernel_cap_image_lemma():
    # Ker(X_a, J^{-j}K) cap Im(X_a^i, J^{-j}K) = Ker(X_a, M) cap Im(X_a^i, M), i <= j
    rng = random.Random(11)
    from kemod.linalg import kernel_fp, matmul_fp

    for m in (mainexample_module(), sixteen_module()):
        ctx = m.ctx
        for j in (1, 2):
            layer = K.filtration_layer(m, -j)
            lmod, lrows = K.sub_as_module(m, layer)
            for i in (1, min(2, j)):
                for _ in range(4):
                    coords = [ctx.random_scalar(rng) for _ in range(2)]
                    if not any(bool(c) for c in coords):
                        continue
                    a_m = K.x_alpha(m, K.PointSpec(tuple(coords), ctx))
                    a_l = K.x_alpha(lmod, K.PointSpec(tuple(coords), ctx))

                    def ker_cap_im(a, dim, power):
                        kk = Subspace.span(ctx, dim, kernel_fp(a, ctx.p))
                        im = Subspace.span(
                            ctx, dim, (np.linalg.matrix_power(a, power) % ctx.p).T
                        )
                        return kk.intersect(im)

                    inside = ker_cap_im(a_l, lmod.dim, i)
                    # push the layer-side subspace into M coordinates
                    rows = (
                        matmul_fp(np.asarray(inside.basis), np.asarray(lrows), ctx.p)
                        if inside.dim
                        else np.zeros((0, m.dim), dtype=np.int64)
                    )
                    pushed = Subspace.span(ctx, m.dim, rows)
                    assert pushed == ker_cap_im(a_m, m.dim, i)
