"""Higher-rank (r >= 3) paths: Monte Carlo constant-rank decisions, exact
generic ranks via grids, slice dimensions, and line restrictions."""

import numpy as np
import pytest

import kemod as K
from kemod.errors import InputError
from kemod.gf import FieldCtx
from kemod.linalg import rank_gen
from kemod.poly import RationalFunction
from kemod.sheaf import monomials

F2 = FieldCtx(2)
F3 = FieldCtx(3)


def rank3_free():
    return K.free_module(F2, 3, 1)


def test_free_module_rank3_probably_constant():
    m = rank3_free()
    dec = K.constant_jrank_decide(m, 1, samples=32, seed=1)
    assert dec.kind == "probably_constant"
    assert dec.rank == 4  # dim 8, kernel dim 4 at every point
    assert dec.confidence is not None and dec.confidence > 0.99
    cjt = K.constant_jordan_type(m)
    assert cjt.kind == "probably_cjt"
    assert repr(cjt.jordan_type) == "[2]^4"


def test_rank3_nonconstant_witness_found_over_small_field():
    # jump locus is a coordinate hyperplane; over F_2 itself ~ half of all
    # sampled points lie on it, so the witness search finds one
    j = np.zeros((2, 2), dtype=np.int64)
    j[1, 0] = 1
    z = np.zeros((2, 2), dtype=np.int64)
    m = K.KEModule(F2, 3, [j, z, z])
    dec = K.constant_jrank_decide(m, 1, samples=64, ext_degree=1, seed=0)
    assert dec.kind == "not_constant"
    assert dec.witness is not None


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
        sym = K.x_alpha(m, K.PointSpec.generic())
        rows = [[RationalFunction.from_poly(e) for e in row] for row in sym]
        zero = RationalFunction.const(m.ctx, 2, 0)
        from kemod.modules import generic_power_ranks

        assert rank_gen(rows, zero) == generic_power_ranks(m, 1)[0]


def test_genker_r3_matches_symbolic():
    m = rank3_free()
    rep = K.generic_kernel(m)
    from kemod.genker import _genker_symbolic

    assert rep.subspace == _genker_symbolic(m, 1)
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


def test_decision_cache_keys_on_sampling():
    # with no samples nothing is tested; a later default call must not
    # reuse that answer
    j = np.zeros((2, 2), dtype=np.int64)
    j[1, 0] = 1
    z = np.zeros((2, 2), dtype=np.int64)
    m = K.KEModule(F2, 3, [j, z, z])
    assert K.constant_jordan_type(m, samples=0).kind == "probably_cjt"
    assert K.constant_jordan_type(m).kind == "not_cjt"
    assert K.constant_jrank_decide(m, 1, samples=0).kind == "probably_constant"


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
    assert widths == [ctx.p - 1]
    assert dec.kind == "probably_cjt" and repr(dec.jordan_type) == "[2][1]^2"
    # a caller that needs j = 1 only gets the narrowest grid
    widths.clear()
    m = K.KEModule(ctx, 3, mats)
    assert modules.generic_power_ranks(m, 1) == [1]
    assert K.constant_jrank_decide(m, 1).kind == "probably_constant"
    assert widths == [1]
