import itertools
import random

import numpy as np
import pytest

import kemod as K
from kemod import linalg
from kemod.errors import ConsistencyError, InputError
from kemod.fixdata import mainexample_module
from kemod.gf import FieldCtx

F2 = FieldCtx(2)
F3 = FieldCtx(3)


def brute_force_hom_dim(a, b):
    """Oracle: enumerate all linear maps b.dim x a.dim over F_p (tiny cases)."""
    p = a.ctx.p
    da, db = a.dim, b.dim
    count = 0
    for vals in itertools.product(range(p), repeat=da * db):
        f = np.array(vals, dtype=np.int64).reshape(db, da)
        ok = True
        for i in range(a.r):
            if ((f @ a.mats[i] - b.mats[i] @ f) % p).any():
                ok = False
                break
        if ok:
            count += 1
    dim = 0
    while p**dim < count:
        dim += 1
    assert p**dim == count
    return dim


def test_hom_space_trivial_modules():
    k = K.trivial_module(F3, 2, 1)
    assert K.hom_space(k, k).dim == 1


def test_hom_space_w22_to_k_brute_force():
    # oracle: maps W_{2,2} -> k are functionals vanishing on the radical
    w = K.w_module(2, 2, 2)  # over F_2 to keep the enumeration tiny
    k = K.trivial_module(F2, 2, 1)
    assert brute_force_hom_dim(w, k) == 2
    assert K.hom_space(w, k).dim == 2
    # and k -> W_{2,2} lands in the socle, which is one-dimensional
    assert brute_force_hom_dim(k, w) == 1
    assert K.hom_space(k, w).dim == 1


def test_hom_space_contains_identity():
    w = K.w_module(3, 3, 2)
    hom = K.hom_space(w, w)
    eye = np.eye(w.dim, dtype=np.int64)
    # identity must be a combination of the basis: solve
    from oracles import solve_fp

    cols = np.array([f.reshape(-1) for f in hom.basis]).T
    assert solve_fp(cols, eye.reshape(-1), 3) is not None


@pytest.mark.parametrize("F", [FieldCtx(5), FieldCtx(3, 2)], ids=lambda F: f"F{F.q}")
def test_hom_space_refuses_a_basis_element_that_does_not_intertwine(monkeypatch, F):
    # the matrix unit E_00 does not commute with the generators of W_{3,2}
    w = K.w_module(F, 3, 2)
    assert K.hom_space(w, w).dim > 0
    unit = np.zeros(w.dim * w.dim, dtype=np.int64)
    unit[0] = 1
    real = linalg.kernel_fp
    monkeypatch.setattr(linalg, "kernel_fp", lambda a, F: np.vstack([real(a, F), unit]))
    with pytest.raises(ConsistencyError, match="fails to intertwine"):
        K.hom_space(w, w)


def test_hom_space_parameter_mismatch():
    with pytest.raises(InputError):
        K.hom_space(K.trivial_module(F2, 2, 1), K.trivial_module(F3, 2, 1))


def test_decompose_direct_sum_of_w22():
    w = K.w_module(3, 2, 2)
    m = K.direct_sum(w, w)
    dec = K.decompose(m, seed=1)
    assert sorted(s.dim for s in dec.summands) == [3, 3]
    assert dec.verify()
    for s in dec.summands:
        assert K.iso_probe(s, w, seed=2).isomorphic


def test_decompose_trivial_is_indecomposable():
    k = K.trivial_module(F3, 2, 1)
    dec = K.decompose(k, seed=0)
    assert dec.count == 1 and dec.summands[0].dim == 1


def test_decompose_reassembly_exact():
    m = K.direct_sum(K.w_module(3, 3, 2), K.dual(K.w_module(3, 2, 2)))
    rng = random.Random(9)
    from kemod.modules import random_invertible

    g = random_invertible(F3, m.dim, rng)
    ginv = K.linalg.inv_fp(g, 3) if hasattr(K, "linalg") else None
    from kemod.linalg import inv_fp, matmul_fp

    ginv = inv_fp(g, 3)
    scrambled = K.KEModule(F3, 2, [matmul_fp(matmul_fp(g, x, 3), ginv, 3) for x in m.mats])
    assert scrambled.validate().ok
    dec = K.decompose(scrambled, seed=4)
    assert dec.verify()
    assert sum(s.dim for s in dec.summands) == m.dim
    # jordan data refines additively
    from kemod.modules import generic_power_ranks

    total = [0] * 3
    for s in dec.summands:
        for j, r in enumerate(generic_power_ranks(s, 3)):
            total[j] += r
    assert total == generic_power_ranks(m, 3)


def test_decompose_mainexample_kernel():
    m = mainexample_module()
    sub = K.sub_as_module(m, K.generic_kernel_power(m, 2).subspace)[0]
    dec = K.decompose(sub, seed=11)
    assert sorted(s.dim for s in dec.summands) == [3, 3]
    w22 = K.w_module(3, 2, 2)
    for s in dec.summands:
        assert K.iso_probe(s, w22, seed=0).isomorphic


def test_iso_probe_identity():
    m = mainexample_module()
    v = K.iso_probe(m, m, seed=0)
    assert v.isomorphic
    # certificate is an honest intertwiner
    from kemod.linalg import matmul_fp

    f = v.certificate
    for i in range(2):
        assert np.array_equal(matmul_fp(f, m.mats[i], 3), matmul_fp(m.mats[i], f, 3))


def test_iso_probe_rejects_on_loewy_length():
    w = K.w_module(3, 2, 2)
    k3 = K.trivial_module(F3, 2, 3)
    v = K.iso_probe(w, k3, seed=0)
    assert v.kind == "not_isomorphic"
    assert v.witness["invariant"] in ("generic power ranks", "radical series", "socle series")


def test_iso_probe_symmetric_verdicts():
    a = K.w_module(3, 3, 2)
    b = K.dual(K.w_module(3, 3, 2))
    va = K.iso_probe(a, b, seed=1)
    vb = K.iso_probe(b, a, seed=1)
    assert va.kind == vb.kind == "not_isomorphic"
    w = K.w_module(3, 2, 2)
    m2 = K.restrict(w, np.array([[1, 1], [1, 2]]))  # invertible coordinate change
    assert K.iso_probe(w, m2, seed=0).isomorphic
    assert K.iso_probe(m2, w, seed=0).isomorphic


def test_iso_probe_dim_mismatch():
    assert K.iso_probe(K.w_module(3, 2, 2), K.w_module(3, 3, 2), seed=0).kind == "not_isomorphic"
