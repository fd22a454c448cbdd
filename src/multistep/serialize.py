"""Versioned JSON model documents.

Floats are emitted via Python's shortest round-trip repr, which json
preserves exactly, so save -> load is bit-identical at float64.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ConfigError, NumericError
from .nn import Layer, Mlp

FORMAT_VERSION = 1


def mlp_to_dict(net: Mlp, metadata: dict | None = None) -> dict:
    meta = dict(net.metadata)
    if metadata:
        meta.update(metadata)
    return {
        "format_version": FORMAT_VERSION,
        "input_dim": net.input_dim,
        "output_dim": net.output_dim,
        "dropout_rate": net.dropout_rate,
        "layers": [
            {
                "weights": [[float(w) for w in row] for row in layer.weights],
                "bias": [float(b) for b in layer.bias],
                "activation": layer.activation,
            }
            for layer in net.layers
        ],
        "metadata": meta,
    }


def mlp_from_dict(doc: dict) -> Mlp:
    if doc.get("format_version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported format_version {doc.get('format_version')!r}")
    layers = [
        Layer(
            np.array(ld["weights"], dtype=float),
            np.array(ld["bias"], dtype=float),
            ld["activation"],
        )
        for ld in doc["layers"]
    ]
    net = Mlp(layers, dropout_rate=doc["dropout_rate"], metadata=dict(doc.get("metadata", {})))
    if net.input_dim != doc["input_dim"] or net.output_dim != doc["output_dim"]:
        raise ConfigError("declared dims disagree with layer shapes")
    return net


def dump_json(doc: dict, path) -> None:
    """Write doc as JSON; a NaN or infinity raises NumericError and writes nothing."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"cannot write {path}: {exc}") from exc
    with open(path, "w") as f:
        f.write(text + "\n")


def load_json(path) -> dict:
    with open(path) as f:
        return json.load(f)
