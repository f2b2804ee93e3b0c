"""Binary checkpoint format.

Layout: an 8-byte magic string, a little-endian uint64 header length, a
UTF-8 JSON header, then one raw little-endian float64 payload per
parameter in header order. The header carries a format version, arbitrary
metadata (the run configuration), and the parameter manifest
(name + shape), so a file can be validated before any payload is read.
"""

from __future__ import annotations

import json
import struct

import numpy as np

MAGIC = b"RELATTN1"
FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """The file is not a readable checkpoint of a supported version."""


def save_checkpoint(path, state: dict[str, np.ndarray], meta: dict | None = None) -> None:
    manifest = [{"name": name, "shape": list(arr.shape)} for name, arr in state.items()]
    header = {
        "format_version": FORMAT_VERSION,
        "meta": meta or {},
        "params": manifest,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for arr in state.values():
            fh.write(memoryview(np.ascontiguousarray(arr, dtype="<f8")))


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (meta, state). Raises CheckpointError on malformed input,
    version mismatch, or truncated payloads."""
    try:
        with open(path, "rb") as fh:
            raw = np.fromfile(fh, dtype=np.uint8)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from exc
    if len(raw) < len(MAGIC) + 8 or raw[: len(MAGIC)].tobytes() != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    (hlen,) = struct.unpack_from("<Q", raw, len(MAGIC))
    start = len(MAGIC) + 8
    if len(raw) < start + hlen:
        raise CheckpointError("truncated checkpoint header")
    try:
        header = json.loads(raw[start : start + hlen].tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {header.get('format_version')};"
            f" this build reads version {FORMAT_VERSION}")

    meta, params = header.get("meta", {}), header.get("params", [])
    if not isinstance(meta, dict) or not isinstance(params, list):
        raise CheckpointError("checkpoint header needs a meta object and a params list")
    state: dict[str, np.ndarray] = {}
    offset = start + hlen
    for entry in params:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(s) is int and s >= 0 for s in entry["shape"])):
            raise CheckpointError(f"malformed manifest entry {entry!r}: need a string name"
                                  " and a list of non-negative integer dimensions")
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(raw):
            raise CheckpointError(f"truncated payload for parameter {entry['name']}")
        # A view of the file's bytes, not a copy; a big-endian host converts.
        arr = raw[offset : offset + nbytes].view("<f8")
        state[entry["name"]] = arr.astype(np.float64, copy=False).reshape(shape)
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError("trailing bytes after final payload")
    return meta, state
