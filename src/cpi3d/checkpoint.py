"""Binary checkpoint serialization with bitwise-stable round trips.

Layout: magic "EQCP", little-endian u32 format version, u32 header length,
a JSON header (sorted keys) with the config echo, the tensor directory
(name, shape, byte offset, trainable flag), the payload length and the
payload's SHA-256, then the float64 little-endian payload, tensors
concatenated in directory order. A version-1 file has no checksum; it is
read with a warning on stderr. `save_model` and `load_model` write and
read a `Model` with its config echo.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import sys

import numpy as np

from .config import RunConfig, build_config, config_doc, load_json
from .equinet import Model, ModelConfig, ParameterStore, params_from_state
from .errors import CheckpointError, ConfigError, ValidationError
from .geograph import CutoffConfig

MAGIC = b"EQCP"
FORMAT_VERSION = 2


def checkpoint_bytes(params: ParameterStore, config: dict | None = None) -> bytes:
    directory = []
    payload = bytearray()
    for name in sorted(params.names()):
        data = params[name].data
        directory.append({
            "name": name,
            "shape": list(data.shape),
            "offset": len(payload),
            "trainable": params.is_trainable(name),
        })
        payload.extend(np.ascontiguousarray(data, dtype="<f8").tobytes())
    header = {
        "config": config or {},
        "tensors": directory,
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"".join([
        MAGIC,
        struct.pack("<I", FORMAT_VERSION),
        struct.pack("<I", len(header_bytes)),
        header_bytes,
        bytes(payload),
    ])


def save_checkpoint(path, params: ParameterStore, config: dict | None = None):
    """Write atomically: a temporary file in the target's directory is
    renamed over `path`, so a failed write leaves any previous file whole."""
    blob = checkpoint_bytes(params, config)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path):
    """Returns (state: name -> array, config: dict, trainable: name -> bool).

    The payload is read through a view of the file's bytes, so the file is
    held once and each tensor is copied once, straight into its array."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise CheckpointError("bad magic bytes: not a checkpoint file")
    (version,) = struct.unpack("<I", blob[4:8])
    if version not in (1, FORMAT_VERSION):
        raise CheckpointError(f"unsupported format version {version} "
                              f"(expected 1 or {FORMAT_VERSION})")
    (header_len,) = struct.unpack("<I", blob[8:12])
    if len(blob) < 12 + header_len:
        raise CheckpointError("truncated header")
    try:
        header = load_json(blob[12:12 + header_len].decode("utf-8"), str(path))
    except (UnicodeDecodeError, json.JSONDecodeError, ValidationError) as exc:
        raise CheckpointError(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict) or not isinstance(header.get("config", {}), dict):
        raise CheckpointError("header or its config is not a JSON object")
    payload = memoryview(blob)[12 + header_len:]
    if len(payload) != header.get("payload_bytes"):
        raise CheckpointError(
            f"truncated payload: {len(payload)} bytes, header says "
            f"{header.get('payload_bytes')}"
        )
    if version > 1 and header.get("payload_sha256") != hashlib.sha256(payload).hexdigest():
        raise CheckpointError("payload checksum mismatch: the file is corrupt")
    state: dict[str, np.ndarray] = {}
    trainable: dict[str, bool] = {}
    name, end = None, 0   # the directory tiles the payload in order: no gap, no overlap
    try:
        for entry in header["tensors"]:
            name, shape, start = entry["name"], entry["shape"], entry["offset"]
            if not isinstance(name, str) or name in state:
                raise CheckpointError(f"tensor {name!r} is repeated or not a string")
            if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
                raise CheckpointError(f"tensor {name!r} has shape {shape!r}, "
                                      "not a list of non-negative integers")
            if type(start) is not int or start != end:
                raise CheckpointError(f"tensor {name!r} starts at offset {start!r}, "
                                      f"not at {end} where the previous tensor ends")
            count = math.prod(shape)
            end = start + count * 8
            if end > len(payload):
                raise CheckpointError(f"tensor {name!r} overruns the payload "
                                      f"(offset {start}, {count} values)")
            state[name] = np.frombuffer(payload, dtype="<f8", count=count,
                                        offset=start).astype(np.float64).reshape(shape)
            trainable[name] = bool(entry.get("trainable", True))
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed tensor directory: {exc!r}") from None
    if end != len(payload):
        raise CheckpointError(f"the payload has {len(payload)} bytes, but its last tensor "
                              f"{name!r} ends at byte {end}")
    if version == 1:
        print(f"warning: {path}: format version 1 has no payload checksum; "
              "saving the model again adds one", file=sys.stderr)
    return state, header.get("config", {}), trainable


def save_model(path, model: Model, run: RunConfig):
    """Write `model` with the config echo `load_model` reads back."""
    save_checkpoint(path, model.params, config={
        "model": config_doc(model.cfg),
        "cutoffs": config_doc(model.cutoffs),
        "train": config_doc(run.train),
        "config_hash": run.hash(),
        "seed": run.train.seed,
    })


def load_model(path) -> Model:
    """Rebuild a `Model` from a checkpoint whose config echo has valid model
    and cutoffs sections; anything else raises `CheckpointError`."""
    state, config, _ = load_checkpoint(path)
    try:
        model_cfg = build_config(ModelConfig, config["model"], ("model",))
        cutoffs = build_config(CutoffConfig, config["cutoffs"], ("cutoffs",))
    except KeyError as exc:
        raise CheckpointError(f"{path}: header has no {exc.args[0]} config") from None
    except (ValidationError, ConfigError) as exc:
        raise CheckpointError(f"{path}: header {exc}") from None
    return Model(cfg=model_cfg, cutoffs=cutoffs,
                 params=params_from_state(model_cfg, cutoffs, state))
