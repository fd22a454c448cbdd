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
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ConfigError, NumericError
from .nn import Layer, Mlp, _is_int
from .pipeline import STRATEGIES
from .strategies import DirectModelSet, MultiOutputModel, RecursiveModel

FORMAT_VERSION = 2

# strategy_tag -> the model kind trained under it
MODEL_KINDS = {tag: row.kind for tag, row in STRATEGIES.items()}


def mlp_to_dict(net: Mlp, metadata: dict | None = None) -> dict:
    """The network document of `net`; NumericError if a parameter is not finite."""
    if not np.isfinite(net.params).all():
        raise NumericError("cannot store a network with non-finite parameters")
    meta = dict(net.metadata)
    if metadata:
        meta.update(metadata)
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
        "metadata": meta,
    }


def _is_shape(shape) -> bool:
    return isinstance(shape, list) and len(shape) == 2 and all(
        _is_int(d) and d >= 1 for d in shape)


def mlp_from_dict(doc: dict) -> Mlp:
    """Rebuild the `Mlp` of a network document; ConfigError when its
    version, layer shapes or params block are not what `mlp_to_dict` writes."""
    if doc.get("format_version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported format_version {doc.get('format_version')!r}")
    specs = doc.get("layers")
    if not isinstance(specs, list) or not all(
            isinstance(ld, dict) and _is_shape(ld.get("shape")) for ld in specs):
        raise ConfigError("layers must be a list of objects with an integer shape "
                          "[out_dim, in_dim]")
    for i in range(1, len(specs)):
        if specs[i]["shape"][1] != specs[i - 1]["shape"][0]:
            raise ConfigError(f"layer {i} shape {specs[i]['shape']} does not take "
                              f"layer {i - 1} shape {specs[i - 1]['shape']}")
    params = doc.get("params")
    if not isinstance(params, str):
        raise ConfigError(f"params must be a base64 string, got {type(params).__name__}")
    try:
        raw = base64.b64decode(params, validate=True)
    except binascii.Error as exc:
        raise ConfigError(f"params is not base64: {exc}") from exc
    size = sum(out * (inp + 1) for out, inp in (ld["shape"] for ld in specs))
    if len(raw) != 8 * size:
        raise ConfigError(f"params holds {len(raw)} bytes; the layer shapes need {8 * size}")
    flat, layers, off = np.frombuffer(raw, "<f8"), [], 0
    for ld in specs:
        out, inp = ld["shape"]
        w_end = off + out * inp
        layers.append(Layer(flat[off:w_end].reshape(out, inp), flat[w_end:w_end + out],
                            ld.get("activation")))
        off = w_end + out
    net = Mlp(layers, dropout_rate=doc["dropout_rate"], metadata=dict(doc.get("metadata", {})))
    if net.input_dim != doc["input_dim"] or net.output_dim != doc["output_dim"]:
        raise ConfigError("declared dims disagree with layer shapes")
    return net


def model_to_doc(model, metadata: dict) -> dict:
    """The document of any strategy's model.

    `metadata` is stored as given, plus the fields `model_from_doc` needs,
    read from the model itself: p, and by kind q, hybrid, or the step
    input's max_step (None for plain DaD, whose documents carry it too).
    Its `strategy_tag` must name a strategy that trains this kind of model.
    """
    tag = metadata.get("strategy_tag")
    if MODEL_KINDS.get(tag) is not type(model):
        raise ConfigError(f"strategy_tag {tag!r} does not store a {type(model).__name__}")
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
    elif model.time_step_augmented or STRATEGIES[tag].section == "dad":
        meta.update(time_step_augmented=model.time_step_augmented, max_step=model.max_step)
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


# what json writes for a str, number, bool or None, at any indent
_scalar = json.JSONEncoder(allow_nan=False).encode


def _json(obj, indent: str) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)` nested at
    `indent`, for str keys."""
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
    if not isinstance(obj, (list, tuple, dict)):
        return _scalar(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = indent + "  "
    if isinstance(obj, dict):
        pairs = sorted(obj.items())
        items = (f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in pairs)
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    items = (_json(v, inner) for v in obj)
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"


def dump_json(doc: dict, path) -> None:
    """Write doc as `json.dumps(doc, indent=2, sort_keys=True)` does, plus a
    newline; a NaN or infinity raises NumericError and writes nothing."""
    try:
        text = _json(doc, "")
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
