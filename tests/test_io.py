import copy
import json

import numpy as np
import pytest

import kemod as K
from kemod.errors import InputError
from kemod.gf import FieldCtx
from kemod.io import (
    fixture_path,
    load_fixture,
    load_module,
    module_from_dict,
    module_to_dict,
    save_module,
)
from fixdata import FIXTURES


def test_round_trip_prime_field(tmp_path):
    w = K.w_module(3, 4, 3)
    path = tmp_path / "w.json"
    save_module(w, path, metadata={"name": "w43"})
    back = load_module(path)
    assert back.dim == w.dim and back.r == 2 and back.ctx.p == 3
    assert all(np.array_equal(a, b) for a, b in zip(w.mats, back.mats))


def test_round_trip_extension_field(tmp_path):
    f4 = FieldCtx(2, 2)
    g = f4.gen()
    z = f4.zero
    x1 = [[z, z], [f4.one, z]]
    x2 = [[z, z], [g, z]]
    m = K.KEModule(f4, 2, [x1, x2])
    path = tmp_path / "ext.json"
    save_module(m, path)
    back = load_module(path)
    assert back.ctx.k == 2 and back.ctx.modulus == f4.modulus
    assert all(np.array_equal(a, b) for a, b in zip(back.mats, m.mats))


def test_invalid_module_rejected():
    a = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    b = [[0, 0, 0], [0, 0, 1], [0, 0, 0]]
    doc = {
        "format": "kemod-module",
        "version": 1,
        "p": 2,
        "r": 2,
        "dim": 3,
        "generators": [sum(a, []), sum(b, [])],
    }
    with pytest.raises(InputError):
        module_from_dict(doc)


def test_wrong_entry_count_rejected():
    doc = {
        "format": "kemod-module",
        "version": 1,
        "p": 2,
        "r": 1,
        "dim": 2,
        "generators": [[0, 0, 0]],
    }
    with pytest.raises(InputError):
        module_from_dict(doc)


def _malformed_docs():
    """Module documents of wrong shapes, by name."""
    base = module_to_dict(K.w_module(3, 2, 2))
    ext = module_to_dict(K.w_module(FieldCtx(3, 2), 2, 2))
    docs = {"document is a list": [base]}
    for name, doc, key, value in [
        ("generators is 5", base, "generators", 5),
        ("modulus is 5", ext, "modulus", 5),
        ("modulus holds 'a'", ext, "modulus", ["a", 1, 1]),
        ("basis_labels is 7", base, "metadata", {"basis_labels": 7}),
        ("basis_labels is 'abc'", base, "metadata", {"basis_labels": "abc"}),
    ]:
        docs[name] = {**doc, key: value}
    for entry in ("a", None):
        docs[f"generator is {entry!r}"] = {**base, "generators": [entry, base["generators"][1]]}
    # each entry replaces one of the value a lax reader would take it for ({}
    # and [] as 0, "1" and 1.0 as 1): the module stays valid, only the type is wrong
    for entry, reads_as in (("a", 0), (None, 0), ({}, 0), ([], 0), ("1", 1), (1.0, 1)):
        for field, doc in (("F3", base), ("F9", ext)):
            gens = copy.deepcopy(doc["generators"])
            gens[0][gens[0].index(reads_as if field == "F3" else [reads_as, 0])] = entry
            docs[f"{field} entry is {entry!r}"] = {**doc, "generators": gens}
    # uniform coefficient lists that the one-pass reading refuses or hands on
    k = ext["field_degree"]
    for name, gens in (
        ("F9 every entry has k + 1 coefficients", [[c + [0] for c in g] for g in ext["generators"]]),
        ("F9 one coefficient is 1.5", [[[1.5, 0] if (i, j) == (0, 0) else c for j, c in enumerate(g)]
                                       for i, g in enumerate(ext["generators"])]),
        ("F9 every entry is []", [[[] for _ in g] for g in ext["generators"]]),
    ):
        assert k == 2 and gens != ext["generators"]
        docs[name] = {**ext, "generators": gens}
    return docs


MALFORMED = _malformed_docs()


def _disguised(F, n, d, seed=0):
    """W_{n,d} over F under a random change of basis over all of F, so its
    entries use every coefficient of the power basis."""
    w = K.w_module(F, n, d)
    rng = np.random.default_rng(seed)
    while True:
        P = rng.integers(0, F.q, (w.dim, w.dim), dtype=np.int64)
        if K.linalg.rank_fp(P, F) == w.dim:
            break
    Pinv = K.linalg.inv_fp(P, F)
    return K.KEModule(F, w.r, [F.matmul(F.matmul(P, x), Pinv) for x in w.mats])


@pytest.mark.parametrize("p, k, n, d", [(2, 2, 31, 2), (2, 3, 31, 2), (3, 2, 21, 3), (5, 2, 14, 5)],
                         ids=["F4", "F8", "F9", "F25"])
def test_round_trip_of_a_large_extension_field_module(p, k, n, d):
    m = _disguised(FieldCtx(p, k), n, d)
    assert m.dim >= 60
    back = module_from_dict(json.loads(json.dumps(module_to_dict(m))))
    assert back.ctx.same_field(m.ctx)
    assert all(np.array_equal(a, b) for a, b in zip(back.mats, m.mats))


def test_coefficient_lists_are_read_without_encoding_each_entry(tmp_path, monkeypatch):
    F = FieldCtx(3, 2)
    m = _disguised(F, 21, 3)
    lists = [F.serialize(x) for x in m.mats]
    path = tmp_path / "m.json"
    save_module(m, path)
    calls = []
    encode = FieldCtx.encode
    monkeypatch.setattr(FieldCtx, "encode", lambda self, value: calls.append(value) or encode(self, value))
    built = K.KEModule(F, 2, lists)
    loaded = load_module(path)
    assert m.dim >= 60 and calls == []
    assert all(np.array_equal(a, b) and np.array_equal(a, c) for a, b, c in zip(m.mats, built.mats, loaded.mats))
    F.array([[1, 0], F.gen()], ndim=1)  # the wrapper counts: a FieldScalar is read by encode
    assert calls


@pytest.mark.parametrize("doc", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_document_is_an_input_error(doc):
    with pytest.raises(InputError):
        module_from_dict(doc)


@pytest.mark.parametrize("value", [{}, [], "1", 1.5, None, [1, "2"], [1.0]], ids=repr)
def test_encode_refuses_what_is_not_a_field_element(value):
    for F in (FieldCtx(3), FieldCtx(3, 2)):
        with pytest.raises(InputError):
            F.encode(value)


def test_encode_reads_ints_lists_and_arrays():
    F = FieldCtx(3, 2)
    assert [F.encode(v) for v in (4, np.int64(4), [1, 2], (1, 2), np.array([1, 2]), np.array(4))] == [1, 1, 7, 7, 7, 1]


def test_fixture_files_match_constructors():
    # the shipped JSON must be byte-compatible with the programmatic builders
    for name, (builder, meta) in FIXTURES.items():
        shipped = load_fixture(name)
        built = builder()
        assert shipped.dim == built.dim
        assert all(np.array_equal(a, b) for a, b in zip(shipped.mats, built.mats))
        assert shipped.labels == built.labels


def test_fixture_metadata_provenance_present():
    for name in FIXTURES:
        doc = json.loads(fixture_path(name).read_text())
        assert doc["metadata"]["basis_labels"]
        assert doc["metadata"]["provenance"]


def test_digest_stability():
    w = K.w_module(2, 2, 2)
    d1 = K.io.digest(module_to_dict(w)) if hasattr(K, "io") else None
    from kemod.io import digest

    assert digest(module_to_dict(w)) == digest(module_to_dict(K.w_module(2, 2, 2)))
