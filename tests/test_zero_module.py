"""The zero module, dim 0, at r = 1, 2 and 3: every invariant is exact and
empty, and the operations that exist only for r = 2 refuse other ranks as
they do for any module."""

import pytest

import kemod as K
from kemod.errors import InputError
from kemod.genker import generic_kernel_filtration
from kemod.gf import FieldCtx
from kemod.sheaf import SplittingType
from kemod.suite import verify_theorems

FIELDS = [FieldCtx(2), FieldCtx(3), FieldCtx(3, 2)]


def ids(F):
    return f"F{F.q}"


@pytest.mark.parametrize("F", FIELDS, ids=ids)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_zero_module_invariants(F, r):
    m = K.trivial_module(F, r, 0)
    assert K.jordan_type(m).mults == (0,) * F.p
    dec = K.constant_jordan_type(m)
    assert dec.kind == "cjt" and dec.jordan_type.dim() == 0
    for n in range(1, F.p + 1):
        rep = K.generic_kernel_power(m, n)
        assert rep.dim == 0 and rep.subspace.ambient == 0
        img = K.generic_image_power(m, n)
        assert img.dim == 0 and img.ambient == 0
    assert K.decompose(m).count == 0
    rep = verify_theorems(m)
    assert rep["ok"] and rep["cjt"] == "cjt"


@pytest.mark.parametrize("F", FIELDS, ids=ids)
def test_zero_module_bundles_and_filtration_at_rank_two(F):
    m = K.trivial_module(F, 2, 0)
    assert all(K.splitting_type(m, i) == SplittingType(()) for i in range(1, F.p + 1))
    layers = generic_kernel_filtration(m)
    assert len(layers) == 2 * F.p and all(lay.subspace.dim == 0 for lay in layers)
    rep = verify_theorems(m)
    assert rep["checks"] and all(c["ok"] for c in rep["checks"])


@pytest.mark.parametrize("r", [1, 3])
def test_zero_module_refuses_rank_two_operations_at_other_ranks(r):
    m = K.trivial_module(FieldCtx(3), r, 0)
    with pytest.raises(InputError):
        K.splitting_type(m, 1)
    with pytest.raises(InputError):
        generic_kernel_filtration(m)
