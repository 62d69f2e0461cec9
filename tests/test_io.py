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
    return docs


MALFORMED = _malformed_docs()


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
