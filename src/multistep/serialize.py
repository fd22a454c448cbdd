"""Versioned JSON model documents.

A network document (format_version 2) lists each layer's weight `shape`
[out_dim, in_dim] and `activation`, and stores every parameter in one
`params` string: the base64 of `Mlp.params` as little-endian float64,
laid out W0 (row-major), b0, W1, b1, ... The bytes are the float64 values
themselves, so save -> load is bit-identical. A recursive or multi-output
model is one network document; a direct or hybrid set keeps one per
horizon step under "models". Documents of any other format_version are
refused.
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import replace

import numpy as np

from . import schema
from .data import RECIPE
from .errors import ConfigError, NumericError, ShapeError
from .nn import ACTIVATION, DROPOUT, Layer, Mlp, layer_slices
from .pipeline import STRATEGIES

FORMAT_VERSION = 2

# strategy_tag -> the model kind trained under it
MODEL_KINDS = {tag: row.kind for tag, row in STRATEGIES.items()}

_OBJECT = schema.Table(None)  # any object
_VERSION = schema.Kind(str(FORMAT_VERSION), lambda v: schema.is_int(v) and v == FORMAT_VERSION)
# a network document, as `mlp_to_dict` writes it
NETWORK = {
    "format_version": _VERSION,
    "input_dim": schema.Int(1),
    "output_dim": schema.Int(1),
    "dropout_rate": DROPOUT,
    "layers": schema.Seq(schema.Table({
        "shape": schema.Seq(schema.Int(1), "an integer shape [out_dim, in_dim]", length=2),
        "activation": ACTIVATION,
    }), "a list of layer objects"),
    "params": schema.Kind("a base64 string", lambda v: isinstance(v, str)),
    "metadata": _OBJECT,
}
# the rows of every model document's metadata; `check_metadata` adds its kind's own
METADATA = {
    "strategy_tag": schema.OneOf(tuple(STRATEGIES)),
    "p": schema.Int(1),
    "q": schema.Int(1, default=None),  # a recursive document may record its served horizon
    "time_step_augmented": schema.Bool(default=False),  # written as max_step is not null
    # the normalizer and data recipe `multistep train` records and `evaluate` requires;
    # a library document may leave them null
    "normalization": schema.Table({"min": schema.Real(), "max": schema.Real()}, null=True),
    "data": schema.Table({k: replace(kind, default=...) for k, kind in RECIPE.items()}, null=True),
}


def check_metadata(meta, required: dict | None = None) -> dict:
    """`meta` filled in; ConfigError unless it fits METADATA, overridden by the
    METADATA of the model kind its strategy_tag names and then by `required`."""
    tag = METADATA["strategy_tag"].check(_OBJECT.check(meta, "metadata").get("strategy_tag"),
                                         "metadata.strategy_tag")
    return schema.check(meta, {**METADATA, **MODEL_KINDS[tag].METADATA, **(required or {})},
                        "metadata")


def mlp_to_dict(net: Mlp, metadata: dict | None = None) -> dict:
    """The network document of `net`, holding `metadata` (none if None);
    NumericError if a parameter is not finite."""
    if not np.isfinite(net.params).all():
        raise NumericError("cannot store a network with non-finite parameters")
    return {
        "format_version": FORMAT_VERSION,
        "input_dim": net.input_dim,
        "output_dim": net.output_dim,
        "dropout_rate": net.dropout_rate,
        "layers": [
            {"shape": list(layer.weights.shape), "activation": layer.activation}
            for layer in net.layers
        ],
        "params": base64.b64encode(net.params.astype("<f8", copy=False).tobytes()).decode(),
        "metadata": dict(metadata or {}),
    }


def mlp_from_dict(doc: dict, path: str = "") -> Mlp:
    """The `Mlp` of the network document at `path`; ConfigError unless it fits NETWORK."""
    doc = schema.check(doc, NETWORK, path)
    specs = doc["layers"]
    for i in range(1, len(specs)):
        if specs[i]["shape"][1] != specs[i - 1]["shape"][0]:
            raise ConfigError(f"layer {i} shape {specs[i]['shape']} does not take "
                              f"layer {i - 1} shape {specs[i - 1]['shape']}")
    try:
        raw = base64.b64decode(doc["params"], validate=True)
    except binascii.Error as exc:
        raise ConfigError(f"params is not base64: {exc}") from exc
    slices = layer_slices([ld["shape"] for ld in specs])
    size = slices[-1][1].stop if slices else 0
    if len(raw) != 8 * size:
        raise ConfigError(f"params holds {len(raw)} bytes; the layer shapes need {8 * size}")
    flat = np.frombuffer(raw, "<f8")
    layers = [Layer(flat[w].reshape(ld["shape"]), flat[b], ld["activation"])
              for (w, b), ld in zip(slices, specs)]
    net = Mlp(layers, dropout_rate=doc["dropout_rate"])
    if net.input_dim != doc["input_dim"] or net.output_dim != doc["output_dim"]:
        raise ConfigError("declared dims disagree with layer shapes")
    return net


def model_to_doc(model, metadata: dict) -> dict:
    """The document of any strategy's model: `metadata` as given, plus p and
    the fields its kind's METADATA names; ConfigError unless the result fits
    `check_metadata`. Its `strategy_tag` must name a strategy that trains
    this kind of model."""
    tag = metadata.get("strategy_tag")
    if MODEL_KINDS.get(tag) is not type(model):
        raise ConfigError(f"strategy_tag {tag!r} does not store a {type(model).__name__}")
    meta = {**metadata, "p": model.p, **{key: getattr(model, key) for key in model.METADATA}}
    for key in ("p", "q", "max_step"):  # a NumPy integer as the int json writes
        if schema.is_int(meta.get(key)):
            meta[key] = int(meta[key])
    meta["time_step_augmented"] = meta.get("max_step") is not None
    if not meta["time_step_augmented"] and STRATEGIES[tag].section != "dad":
        meta.pop("max_step", None)  # only a plain DaD document records it, as null
    check_metadata(meta)
    if model.ONE_NET:
        return mlp_to_dict(model.net, meta)
    return {
        "format_version": FORMAT_VERSION,
        "metadata": meta,
        "models": [dict(mlp_to_dict(net), h=h) for h, net in enumerate(model.models, start=1)],
    }


def model_from_doc(doc: dict):
    """Rebuild the model a `model_to_doc` document holds; ConfigError unless
    it fits, its metadata included."""
    if doc.get("format_version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported format_version {doc.get('format_version')!r}")
    meta = check_metadata(doc.get("metadata", {}))
    if meta["time_step_augmented"] != (meta.get("max_step") is not None):
        raise ConfigError(f"metadata.max_step {meta.get('max_step')} disagrees with "
                          f"time_step_augmented {meta['time_step_augmented']}")
    kind = MODEL_KINDS[meta["strategy_tag"]]
    if kind.ONE_NET:
        nets = mlp_from_dict(doc)
    else:
        docs = schema.Seq(_OBJECT, "a list of network documents").check(
            doc.get("models"), "models")
        nets = []
        for i, m in enumerate(docs):  # a set's nets alone carry h, the step each serves
            if not (schema.is_int(m.get("h")) and m["h"] == i + 1):
                raise ConfigError(f"models[{i}].h must be {i + 1}, got {m.get('h')!r}")
            nets.append(mlp_from_dict({k: v for k, v in m.items() if k != "h"}, f"models[{i}]"))
    fields = {"p": meta["p"], **{key: meta[key] for key in kind.METADATA}}
    try:
        return kind(nets, **fields)
    except ShapeError as exc:
        named = ", ".join(f"metadata.{key} {value}" for key, value in fields.items())
        raise ConfigError(f"{named} do not fit the networks: {exc}") from exc


def dump_json(doc: dict, path) -> None:
    """Write doc as `json.dumps(doc, indent=2, sort_keys=True)` plus a
    newline; a NaN or infinity raises NumericError and writes nothing."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"cannot write {path}: {exc}") from exc
    with open(path, "w") as f:
        f.write(text + "\n")


def load_json(path) -> dict:
    """The JSON object in `path`; ConfigError when the text is not JSON or
    its top level is not an object."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must hold a JSON object, got a {type(doc).__name__}")
    return doc
