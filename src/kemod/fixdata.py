"""Programmatic constructors for the bundled fixture modules.

The JSON fixtures shipped in ``fixtures/`` were written from these
constructors by ``io.save_module``; tests assert the shipped files match,
so transcription is auditable vertex by vertex through the basis labels.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldCtx
from .modules import KEModule


def mainexample_module() -> KEModule:
    """p=3, r=2, dim 7: one top vertex t over two V-shaped pairs.

    Basis t, m1..m4, b1, b2 with arrows
    X1: t -> m2, m2 -> b1, m4 -> b2;  X2: t -> m3, m1 -> b1, m3 -> b2.
    """
    labels = ["t", "m1", "m2", "m3", "m4", "b1", "b2"]
    ix = {s: i for i, s in enumerate(labels)}
    x1 = np.zeros((7, 7), dtype=np.int64)
    x2 = np.zeros((7, 7), dtype=np.int64)
    for src, tgt in [("t", "m2"), ("m2", "b1"), ("m4", "b2")]:
        x1[ix[tgt], ix[src]] = 1
    for src, tgt in [("t", "m3"), ("m1", "b1"), ("m3", "b2")]:
        x2[ix[tgt], ix[src]] = 1
    return KEModule(FieldCtx(3), 2, [x1, x2], labels=labels)


def sixteen_module() -> KEModule:
    """p=3, r=2, dim 16: five top vertices over a width-six middle row.

    Basis u1..u5, m1..m6, b1..b5 with arrows
    X1: u_i -> m_i, m_j -> b_{j-1} (j >= 2);
    X2: u_i -> m_{i+1}, m_j -> b_j (j <= 5).
    """
    labels = [f"u{i}" for i in range(1, 6)] + [f"m{j}" for j in range(1, 7)] + [
        f"b{j}" for j in range(1, 6)
    ]
    ix = {s: i for i, s in enumerate(labels)}
    x1 = np.zeros((16, 16), dtype=np.int64)
    x2 = np.zeros((16, 16), dtype=np.int64)
    for i in range(1, 6):
        x1[ix[f"m{i}"], ix[f"u{i}"]] = 1
        x2[ix[f"m{i+1}"], ix[f"u{i}"]] = 1
    for j in range(2, 7):
        x1[ix[f"b{j-1}"], ix[f"m{j}"]] = 1
    for j in range(1, 6):
        x2[ix[f"b{j}"], ix[f"m{j}"]] = 1
    return KEModule(FieldCtx(3), 2, [x1, x2], labels=labels)


FIXTURES = {
    "mainexample": (
        mainexample_module,
        {
            "name": "mainexample",
            "provenance": "seven-dimensional module: top vertex t with X1 t = m2, "
            "X2 t = m3 over the two V-pairs (m1, m2; b1) and (m3, m4; b2)",
        },
    ),
    "sixteen": (
        sixteen_module,
        {
            "name": "sixteen",
            "provenance": "sixteen-dimensional module: tops u1..u5 with X1 u_i = m_i, "
            "X2 u_i = m_{i+1}; middle row m1..m6 a width-six W over b1..b5",
        },
    ),
}
