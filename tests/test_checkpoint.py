"""Binary checkpoint format: round trips and corruption detection."""

import hashlib
import json
import struct

import numpy as np
import pytest

from relattn.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from relattn.config import RunConfig
from relattn.model import RelationModel


@pytest.fixture
def state():
    rng = np.random.default_rng(40)
    return {
        "layer.weight": rng.standard_normal((3, 4)),
        "layer.bias": rng.standard_normal(4),
        "scalarish": rng.standard_normal((1,)),
    }


class TestRoundTrip:
    def test_bytes_and_values_survive(self, tmp_path, state):
        path = tmp_path / "model.ckpt"
        meta = {"iterations": 12, "config": {"d": 32, "K": 2}}
        save_checkpoint(path, state, meta)
        got_meta, got_state = load_checkpoint(path)
        assert got_meta == meta
        assert sorted(got_state) == sorted(state)
        for name, arr in state.items():
            np.testing.assert_array_equal(got_state[name], arr)
            assert got_state[name].dtype == arr.dtype
            assert got_state[name].flags.writeable

    def test_save_is_deterministic(self, tmp_path, state):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, state, {"k": 1})
        save_checkpoint(b, state, {"k": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_payload_is_raw_little_endian_float64(self, tmp_path, state):
        """Payloads follow the header in state order as raw <f8 bytes;
        a transposed or float32 array is written as its C-order float64
        copy."""
        odd = dict(state, transposed=np.arange(6.0).reshape(2, 3).T,
                   single=np.arange(3, dtype=np.float32))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, odd)
        payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                           for a in odd.values())
        assert path.read_bytes().endswith(payload)
        _, got = load_checkpoint(path)
        for name, arr in odd.items():
            np.testing.assert_array_equal(got[name], arr)

    def test_empty_meta_allowed(self, tmp_path, state):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, state)
        meta, _ = load_checkpoint(path)
        assert meta == {}


class TestCorruption:
    def test_bad_magic(self, tmp_path, state):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, state)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path, state):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, state)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path, state):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, state)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.ckpt")

    @pytest.mark.parametrize("header, message", [
        ([1, 2], "not a JSON object"),
        ({"meta": [1]}, "meta object"),
        ({"params": {"a": [2]}}, "params list"),
        ({"params": ["a"]}, "manifest entry"),
        ({"params": [{"name": "a"}]}, "manifest entry"),
        ({"params": [{"shape": [2]}]}, "manifest entry"),
        ({"params": [{"name": 3, "shape": [2]}]}, "manifest entry"),
        ({"params": [{"name": "a", "shape": 2}]}, "manifest entry"),
        ({"params": [{"name": "a", "shape": [-2]}]}, "manifest entry"),
        ({"params": [{"name": "a", "shape": [2.0]}]}, "manifest entry"),
        ({"params": [{"name": "a", "shape": [True, 2]}]}, "manifest entry"),
    ], ids=["list-header", "list-meta", "dict-params", "string-entry", "no-shape",
            "no-name", "int-name", "int-shape", "negative-dim", "float-dim", "bool-dim"])
    def test_malformed_header(self, tmp_path, header, message):
        """A header of the right version but the wrong structure is a
        CheckpointError naming the fault, whatever payload follows."""
        if isinstance(header, dict):
            header = dict(header, format_version=1)
        blob = json.dumps(header).encode("utf-8")
        path = tmp_path / "m.ckpt"
        path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + np.zeros(2).tobytes())
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)


class TestParameterManifest:
    """A checkpoint stores parameters by name, in registration order, so a
    renamed, reshaped or reordered parameter breaks every saved model. The
    digests pin the manifest of one "name AxBxC" line per parameter."""

    DESK = dict(K=2, d=32, L_d=1, h_G=4, d_G=8, h_R=4, d_R=8, h_A=8, d_A=8)

    @pytest.mark.parametrize("overrides, count, values, digest", [
        (DESK, 70, 44_547,
         "eb3b33f3e6f92f62586308cb9385feb74ce51ed11b0125e49fe3543401331529"),
        ({}, 70, 6_875_707,
         "22db9aaa8591fcd6ca8c4dbcbf53aed70a709d9e48a053cc53163d1992f595df"),
    ], ids=["desk", "paper"])
    def test_manifest_is_pinned(self, overrides, count, values, digest):
        model = RelationModel(RunConfig(C=8, P=10, **overrides), np.random.default_rng(0))
        params = model.registry.parameters()
        manifest = "\n".join(f"{p.name} {'x'.join(map(str, p.data.shape))}" for p in params)
        assert len(params) == count
        assert sum(p.data.size for p in params) == values
        assert hashlib.sha256(manifest.encode()).hexdigest() == digest
