"""Versioned JSON model documents.

Floats are emitted via Python's shortest round-trip repr, which json
preserves exactly, so save -> load is bit-identical at float64. A
recursive or multi-output model is one network document; a direct or
hybrid set keeps one per horizon step under "models".
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ConfigError, NumericError
from .nn import Layer, Mlp
from .strategies import DirectModelSet, MultiOutputModel, RecursiveModel

FORMAT_VERSION = 1

# strategy_tag -> the model kind trained under it
MODEL_KINDS = {
    "recursive": RecursiveModel,
    "dad": RecursiveModel,
    "cdad": RecursiveModel,
    "direct": DirectModelSet,
    "hybrid": DirectModelSet,
    "multi": MultiOutputModel,
    "multi-noise": MultiOutputModel,
    "multi-cgan": MultiOutputModel,
}


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


def model_to_doc(model, metadata: dict) -> dict:
    """The document of any strategy's model.

    `metadata` is stored as given, plus the fields `model_from_doc` needs,
    read from the model itself: p, and by kind q, hybrid, or the step
    input's max_step. Its `strategy_tag` must name a strategy that trains
    this kind of model.
    """
    if MODEL_KINDS.get(metadata.get("strategy_tag")) is not type(model):
        raise ConfigError(
            f"strategy_tag {metadata.get('strategy_tag')!r} does not store a "
            f"{type(model).__name__}"
        )
    meta = dict(metadata, p=model.p, time_step_augmented=False)
    if isinstance(model, DirectModelSet):
        meta.update(q=model.horizon, hybrid=model.hybrid)
        return {
            "format_version": FORMAT_VERSION,
            "metadata": meta,
            "models": [
                dict(mlp_to_dict(net), h=h) for h, net in enumerate(model.models, start=1)
            ],
        }
    if isinstance(model, MultiOutputModel):
        meta["q"] = model.q
    elif model.time_step_augmented:
        meta.update(time_step_augmented=True, max_step=model.max_step)
    return mlp_to_dict(model.net, meta)


def model_from_doc(doc: dict):
    """Rebuild the model a `model_to_doc` document holds."""
    if doc.get("format_version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported format_version {doc.get('format_version')!r}")
    meta = doc["metadata"]
    kind = MODEL_KINDS.get(meta.get("strategy_tag"))
    if kind is DirectModelSet:
        nets = [mlp_from_dict(m) for m in doc["models"]]
        return DirectModelSet(nets, horizon=len(nets), p=meta["p"], hybrid=meta["hybrid"])
    if kind is MultiOutputModel:
        return MultiOutputModel(mlp_from_dict(doc), p=meta["p"], q=meta["q"])
    if kind is RecursiveModel:
        return RecursiveModel(
            mlp_from_dict(doc),
            p=meta["p"],
            time_step_augmented=meta.get("time_step_augmented", False),
            max_step=meta.get("max_step"),
        )
    raise ConfigError(f"unknown strategy_tag {meta.get('strategy_tag')!r}")


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
