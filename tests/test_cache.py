"""The per-module caches and their families.

A module made by ``dual``, ``restrict`` or a subquotient shares one cache
with every module of its family that has the same matrices; a module built
by the constructor is a root of its own.  The CLI reports below are pinned
by digests of the reports written before the families were introduced, so
sharing changes no answer.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

import kemod as K
from kemod import linalg, modules, pencil
from kemod.cli import main
from kemod.gf import FieldCtx
from kemod.io import fixture_path, load_module
from kemod.subspace import Subspace
from kemod.suite import verify_theorems

F3 = FieldCtx(3)


def test_equal_derived_modules_share_the_roots_cache():
    m = K.w_module(F3, 4, 3)
    full, zero = Subspace.full(F3, m.dim), Subspace.zero(F3, m.dim)
    assert K.dual(K.dual(m))._cache is m._cache
    assert K.sub_as_module(m, full)[0]._cache is m._cache
    assert K.quotient_module(m, zero)._cache is m._cache
    assert K.restrict(m, [[1, 0], [0, 1]])._cache is m._cache


def test_a_value_computed_on_a_derived_module_is_read_at_the_root():
    m = K.w_module(F3, 4, 3)
    rep = K.generic_kernel_power(K.dual(K.dual(m)), 2)
    assert m._cache[("genker", 2)] is rep
    assert K.generic_kernel_power(m, 2) is rep


def test_different_matrices_get_their_own_entry():
    m = K.w_module(F3, 4, 3)
    md = K.dual(m)
    moved = K.restrict(m, [[1, 0], [1, 1]])
    assert not np.array_equal(moved.mats[0], m.mats[0])  # X_1 + X_2
    caches = [m._cache, md._cache, moved._cache]
    assert len({id(c) for c in caches}) == 3
    # one family: a second derivation with the same content finds the entry
    assert K.restrict(K.dual(K.dual(m)), [[1, 0], [1, 1]])._cache is moved._cache
    assert K.dual(K.dual(md))._cache is md._cache


def test_a_new_root_with_equal_matrices_starts_empty():
    m = K.w_module(F3, 4, 3)
    K.generic_kernel_power(m, 1)
    twin = K.KEModule(m.ctx, m.r, m.mats)
    assert twin._cache is not m._cache and twin._cache == {}
    assert K.dual(twin)._cache is not K.dual(m)._cache
    assert K.dual(K.dual(twin))._cache is twin._cache


def _count_calls(monkeypatch, owner, name):
    calls = []
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_verify_theorems_repeats_no_smith_form_or_sweep(monkeypatch):
    # on separate caches per derived module the same run made 50 Smith forms
    # and 37 kernel-basis sweeps
    snfs = _count_calls(monkeypatch, modules, "smith_normal_form")
    sweeps = _count_calls(monkeypatch, pencil, "graded_kernel_basis")
    rep = verify_theorems(load_module(fixture_path("sixteen")), seed=0)
    assert rep["ok"]
    assert len(snfs) <= 16 and len(sweeps) <= 10


def test_verify_theorems_eliminates_each_subspace_once(monkeypatch):
    # kernels taken as kernel_fp rows and eliminated again, perps eliminated
    # from their own echelon forms and complements eliminated twice made 127
    # and 137 eliminations here
    # pencil binds rref_fp by name
    calls = [_count_calls(monkeypatch, owner, "rref_fp") for owner in (linalg, pencil)]
    for name, most in (("mainexample", 92), ("sixteen", 101)):
        for c in calls:
            c.clear()
        assert verify_theorems(load_module(fixture_path(name)), seed=0)["ok"]
        assert sum(map(len, calls)) <= most, (name, sum(map(len, calls)))


def test_the_duality_check_computes_the_dual_kernel_apart(monkeypatch):
    m = load_module(fixture_path("mainexample"))
    seen = []
    orig = K.generic_kernel_power

    def spy(mod, n):
        seen.append(mod)
        return orig(mod, n)

    monkeypatch.setattr("kemod.suite.generic_kernel_power", spy)
    verify_theorems(m, seed=0)
    md = K.dual(m)
    transposes = [x for x in seen if x.dim == m.dim and all(np.array_equal(a, b) for a, b in zip(x.mats, md.mats))]
    # the duality check's dual is a root of its own, apart from dual(m)'s cache
    assert transposes and all(x._cache is not md._cache for x in transposes)


REPORTS = {
    "verify-theorems mainexample": (
        ["verify-theorems", str(fixture_path("mainexample")), "--seed", "0"],
        "bfe96fd7cf3bb5a9d31a767aea9fc2d7a051760f2c92f42bf845eade447b3bf3",
    ),
    "verify-theorems sixteen": (
        ["verify-theorems", str(fixture_path("sixteen")), "--seed", "0"],
        "192ecec196c1d708dc6b488115c3206244e94fcb9ee157a045185db96d1a21cd",
    ),
    "conjecture-scan": (
        ["conjecture-scan", "--count", "7", "--seed", "0"],
        "04a2798454b5c08450e65922994982bd41a37540948e8b59d4632d4b5250d63b",
    ),
    "question-scan": (
        ["question-scan", "--count", "7", "--seed", "0"],
        "e6fcecd790360f1905cd1380c116f3865c47c9382211be4930a9d4a64a78b6d1",
    ),
}


@pytest.mark.parametrize("name", list(REPORTS))
def test_cli_reports_are_unchanged(name):
    args, digest = REPORTS[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(args) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
