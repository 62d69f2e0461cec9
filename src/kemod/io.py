"""Module files: a single self-describing JSON document per module.

Entries are row-major integer arrays for prime fields; for extension
fields each entry is a coefficient array of length k in the power basis
of the modulus polynomial, which is then stored alongside.
"""

from __future__ import annotations

import hashlib
import json
from importlib import resources
from pathlib import Path

from .errors import InputError
from .gf import FieldCtx
from .modules import KEModule

FORMAT = "kemod-module"
VERSION = 1


def module_to_dict(m: KEModule, metadata: dict | None = None) -> dict:
    k = m.ctx.k
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "p": m.ctx.p,
        "field_degree": k,
        "r": m.r,
        "dim": m.dim,
    }
    if k > 1:
        doc["modulus"] = list(m.ctx.modulus)
    doc["generators"] = [m.ctx.serialize(x.reshape(-1)) for x in m.mats]
    meta = dict(metadata or {})
    if m.labels and "basis_labels" not in meta:
        meta["basis_labels"] = list(m.labels)
    if meta:
        doc["metadata"] = meta
    return doc


def module_from_dict(doc: dict) -> KEModule:
    try:
        if not isinstance(doc, dict) or doc.get("format") != FORMAT:
            raise InputError(f"not a {FORMAT} document")
        p = int(doc["p"])
        k = int(doc.get("field_degree", 1))
        r = int(doc["r"])
        dim = int(doc["dim"])
        gens = doc["generators"]
        if len(gens) != r:
            raise InputError(f"expected {r} generator matrices, found {len(gens)}")
        modulus = doc.get("modulus")
        if k > 1 and modulus is None:
            raise InputError("extension-field module file lacks a modulus")
        ctx = FieldCtx(p, k, None if k == 1 else tuple(int(c) for c in modulus))
        mats = []
        for g in gens:
            if len(g) != dim * dim:
                raise InputError("generator matrix has wrong number of entries")
            mats.append(ctx.array(g, ndim=1).reshape(dim, dim))
        labels = None
        meta = doc.get("metadata") or {}
        if isinstance(meta, dict) and meta.get("basis_labels"):
            labels = [str(x) for x in meta["basis_labels"]]
            if len(labels) != dim:
                raise InputError("basis_labels length differs from dim")
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed module file: {e}") from e
    mod = KEModule(ctx, r, mats, labels=labels)
    rep = mod.validate()
    if not rep.ok:
        raise InputError(f"module file fails validation: {rep.violations}")
    return mod


def save_module(m: KEModule, path, metadata: dict | None = None):
    doc = module_to_dict(m, metadata)
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_module(path) -> KEModule:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON in {path}: {e}") from e
    return module_from_dict(doc)


def digest(doc) -> str:
    """Canonical content digest for reports."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def fixture_path(name: str) -> Path:
    base = resources.files("kemod") / "fixtures" / f"{name}.json"
    with resources.as_file(base) as p:
        return Path(p)


def load_fixture(name: str) -> KEModule:
    return load_module(fixture_path(name))
