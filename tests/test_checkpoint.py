"""Binary checkpoint format: round trips and corruption detection."""

import numpy as np
import pytest

from relattn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint


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
