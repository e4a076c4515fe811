import json
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest

from cpi3d.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    checkpoint_bytes,
    load_checkpoint,
    load_model,
    save_checkpoint,
)
from cpi3d import equinet
from cpi3d.equinet import IrrepLayout, ModelConfig, init_params, params_from_state
from cpi3d.errors import CheckpointError, ConfigError
from cpi3d.geograph import CutoffConfig


CUTOFFS = CutoffConfig(rbf_k=4)


def _store(seed=0):
    cfg = ModelConfig(layers=1, layout=IrrepLayout((3, 1, 1)),
                      edge_mlp_hidden=4, readout_hidden=4,
                      fingerprint_width=16, fingerprint_embed=4)
    return init_params(cfg, CUTOFFS, seed=seed), cfg


def test_round_trip_bitwise(tmp_path):
    params, cfg = _store()
    path = tmp_path / "model.eqcp"
    save_checkpoint(path, params, config={"model": cfg.to_dict()})
    first = path.read_bytes()

    state, config, trainable = load_checkpoint(path)
    assert config["model"]["layers"] == 1
    loaded = params_from_state(cfg, CUTOFFS, state)
    assert loaded.names() == params.names()   # init order, not the file's sorted order
    for name in params.names():
        np.testing.assert_array_equal(loaded[name].data, params[name].data)
        assert trainable[name] == params.is_trainable(name)

    path2 = tmp_path / "again.eqcp"
    save_checkpoint(path2, loaded, config={"model": cfg.to_dict()})
    assert path2.read_bytes() == first


def test_corrupt_magic(tmp_path):
    params, _ = _store()
    path = tmp_path / "bad.eqcp"
    blob = bytearray(checkpoint_bytes(params))
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_version_mismatch(tmp_path):
    params, _ = _store()
    path = tmp_path / "bad.eqcp"
    blob = bytearray(checkpoint_bytes(params))
    blob[4:8] = struct.pack("<I", FORMAT_VERSION + 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_truncated_payload(tmp_path):
    params, _ = _store()
    path = tmp_path / "bad.eqcp"
    blob = checkpoint_bytes(params)
    path.write_bytes(blob[:-16])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_shape_mismatch_rejected(tmp_path):
    params, cfg = _store()
    path = tmp_path / "ok.eqcp"
    save_checkpoint(path, params)
    state, _, _ = load_checkpoint(path)
    state["embed.ligand.W"] = np.zeros((2, 2))
    with pytest.raises(ConfigError, match=r"'embed.ligand.W': shape \(2, 2\) != "):
        params_from_state(cfg, CUTOFFS, state)


def test_init_params_draws_in_param_spec_order():
    params, cfg = _store(seed=5)
    spec = equinet.param_spec(cfg, CUTOFFS)
    assert params.names() == [name for name, *_ in spec]
    rng = np.random.default_rng(5)
    for name, shape, init, trainable in spec:
        assert params[name].data.shape == shape and params.is_trainable(name) == trainable
        if isinstance(init, float):
            assert (params[name].data == init).all()
        else:
            bound = 1.0 / np.sqrt(init)
            np.testing.assert_array_equal(params[name].data, rng.uniform(-bound, bound, shape))


def test_load_model_builds_the_store_without_init_params(tmp_path, monkeypatch):
    cfg = ModelConfig(layers=1, layout=IrrepLayout((3, 1, 1)), edge_mlp_hidden=4,
                      readout_hidden=4, fingerprint_width=16, fingerprint_embed=4)
    params = init_params(cfg, CUTOFFS, seed=2)
    path = tmp_path / "model.eqcp"
    save_checkpoint(path, params, config={"model": cfg.to_dict(), "cutoffs": CUTOFFS.to_dict()})

    def no_init(*args, **kwargs):
        raise AssertionError("load_model drew a throwaway init")

    monkeypatch.setattr(equinet, "init_params", no_init)
    model = load_model(path)
    assert model.params.names() == params.names()
    for name in params.names():
        np.testing.assert_array_equal(model.params[name].data, params[name].data)
        assert model.params.is_trainable(name) == params.is_trainable(name)


def test_load_checkpoint_peaks_below_two_and_a_half_file_sizes(tmp_path):
    """The payload is read through a view, not sliced into a second bytes
    copy; the sliced read peaked at 3.5 file sizes."""
    path = tmp_path / "model.eqcp"
    save_checkpoint(path, init_params(ModelConfig(), CutoffConfig(), seed=0))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        state, _, _ = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(a.nbytes for a in state.values()) > 0.9 * size   # the rest is the header
    assert peak < 2.5 * size


def test_directory_overrun_rejected(tmp_path):
    params, _ = _store()
    blob = bytearray(checkpoint_bytes(params))
    header_len = struct.unpack("<I", blob[8:12])[0]
    import json
    header = json.loads(blob[12:12 + header_len])
    header["tensors"][0]["shape"] = [10_000, 10_000]
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    new_blob = blob[:8] + struct.pack("<I", len(new_header)) + new_header \
        + blob[12 + header_len:]
    path = tmp_path / "bad.eqcp"
    path.write_bytes(bytes(new_blob))
    with pytest.raises(CheckpointError, match="overrun"):
        load_checkpoint(path)


def test_magic_constant():
    assert MAGIC == b"EQCP"


def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.eqcp"
    save_checkpoint(path, _store(seed=0)[0])
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, _store(seed=1)[0])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.eqcp"]


def _with_header(blob: bytes, edit) -> bytes:
    header_len = struct.unpack("<I", blob[8:12])[0]
    header = edit(json.loads(blob[12:12 + header_len]))
    new_header = json.dumps(header).encode()
    return blob[:8] + struct.pack("<I", len(new_header)) + new_header + blob[12 + header_len:]


def _edit_tensors(header: dict, edit) -> dict:
    return {**header, "tensors": edit(header["tensors"])}


@pytest.mark.parametrize("edit,needle", [
    (lambda h: [h], "not a JSON object"),
    (lambda h: {**h, "config": 5}, "not a JSON object"),
    (lambda h: {k: v for k, v in h.items() if k != "tensors"}, "malformed tensor directory"),
    (lambda h: {**h, "tensors": [{"shape": [1]}]}, "malformed tensor directory"),
    (lambda h: {**h, "config": {"cutoffs": {"pp": math.nan}}}, "NaN is not a JSON number"),
    (lambda h: {**h, "payload_bytes": -math.inf}, "-Infinity is not a JSON number"),
    (lambda h: _edit_tensors(h, lambda t: [{**e, "offset": 0} for e in t]), "offset 0, not at"),
    (lambda h: _edit_tensors(h, lambda t: [t[0], {**t[1], "offset": t[1]["offset"] + 4}] + t[2:]),
     "not at"),
    (lambda h: _edit_tensors(h, lambda t: [{**t[0], "offset": -8}] + t[1:]), "offset -8"),
    (lambda h: _edit_tensors(h, lambda t: [{**t[0], "offset": 0.0}] + t[1:]), "offset 0.0"),
    (lambda h: _edit_tensors(h, lambda t: [t[0], {**t[1], "name": t[0]["name"]}] + t[2:]),
     "is repeated"),
    (lambda h: _edit_tensors(h, lambda t: [{**t[0], "shape": [-1, -8]}] + t[1:]),
     "not a list of non-negative integers"),
    (lambda h: _edit_tensors(h, lambda t: [{**t[0], "shape": [2.5]}] + t[1:]),
     "not a list of non-negative integers"),
    (lambda h: _edit_tensors(h, lambda t: t[:-1]), "but its last tensor"),
], ids=["list-header", "config-not-object", "no-tensors", "entry-without-offset",
        "nan-config", "infinite-size", "all-at-offset-zero", "unaligned-offset",
        "negative-offset", "float-offset", "repeated-name", "negative-shape", "float-shape",
        "payload-not-covered"])
def test_malformed_header_rejected(tmp_path, edit, needle):
    path = tmp_path / "bad.eqcp"
    path.write_bytes(_with_header(checkpoint_bytes(_store()[0]), edit))
    with pytest.raises(CheckpointError, match=needle):
        load_checkpoint(path)
