"""Binary checkpoint format.

Layout (all integers little-endian):

    magic "MEIRL1"
    u32 meta_len, meta JSON (utf-8)   -- architecture + config + counters
    u32 n_params, then per parameter: name record + array record
    u8  1, then per parameter two array records (Adam's m then v, same order)

An array record is: u16 name_len, name utf-8, u8 ndim, ndim * u32 dims,
then the values as little-endian float64, row-major.

A checkpoint is written whole through `config.write_file`, so a crash
mid-write leaves the previous one in place, and read through `config.Reader`,
so a corrupt or truncated file is a ConfigError naming the path.
"""

from __future__ import annotations

import io
import json
import struct
from pathlib import Path

import numpy as np

from .config import Reader, write_file
from .errors import ConfigError
from .nn import ParameterStore

MAGIC = b"MEIRL1"


def _write_array(fh, name: str, arr: np.ndarray) -> None:
    raw = name.encode("utf-8")
    fh.write(struct.pack(f"<H{len(raw)}sB{arr.ndim}I", len(raw), raw, arr.ndim, *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _read_array(reader: Reader):
    (name_len,) = reader.unpack("<H")
    try:
        name = reader.take(name_len).decode("utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"checkpoint parameter name is not UTF-8: {e}") from e
    (ndim,) = reader.unpack("<B")
    return name, reader.array("<f8", reader.unpack(f"<{ndim}I"))


def save_checkpoint(path, store: ParameterStore, meta: dict | None = None,
                    iteration: int = 0) -> None:
    meta = dict(meta or {})
    meta["iteration"] = int(iteration)
    meta["adam"] = {"learning_rate": store.learning_rate, "step": store.step}
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    fh = io.BytesIO()
    fh.write(MAGIC + struct.pack("<I", len(blob)) + blob + struct.pack("<I", len(store.params)))
    for name, arr in store.params.items():
        _write_array(fh, name, arr)
    fh.write(struct.pack("<B", 1))
    for name in store.params:
        _write_array(fh, name, store.m[name])
        _write_array(fh, name, store.v[name])
    write_file(path, fh.getvalue())


def load_checkpoint(path):
    """Returns (ParameterStore, meta dict, iteration)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"checkpoint not found: {path}")
    try:
        return _decode(Reader(path.read_bytes(), "checkpoint record"))
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e


def _decode(reader: Reader):
    if reader.take(len(MAGIC)) != MAGIC:
        raise ConfigError("not a checkpoint (bad magic)")
    (meta_len,) = reader.unpack("<I")
    try:  # UnicodeDecodeError and JSONDecodeError are both ValueErrors
        meta = json.loads(reader.take(meta_len).decode("utf-8"))
    except ValueError as e:
        raise ConfigError(f"checkpoint meta block is not UTF-8 JSON: {e}") from e
    if not isinstance(meta, dict):
        raise ConfigError(f"checkpoint meta block must be an object, got {type(meta).__name__}")
    iteration, adam = meta.get("iteration", 0), meta.get("adam", {})
    if not _is_int(iteration):
        raise ConfigError(f"checkpoint meta block's iteration must be an int, got {iteration!r}")
    if not (isinstance(adam, dict)
            and all(_is_int(v) or isinstance(v, float) for v in adam.values())):
        raise ConfigError(f"checkpoint meta block's adam entry must be a JSON object of numbers, "
                          f"got {adam!r}")
    (n_params,) = reader.unpack("<I")
    params = {}
    for _ in range(n_params):
        name, arr = _read_array(reader)
        if name in params:
            raise ConfigError(f"duplicate parameter {name!r} in checkpoint")
        params[name] = arr
    # Adam's beta1, beta2 and eps are nn constants; older checkpoints that
    # carry them in this entry load with the constants
    store = ParameterStore.create(params, adam.get("learning_rate", 1e-3))
    store.step = int(adam.get("step", 0))
    if reader.unpack("<B") != (1,):
        raise ConfigError("checkpoint optimizer-state marker must be 1")
    for name in params:
        m_name, m = _read_array(reader)
        v_name, v = _read_array(reader)
        if m_name != name or v_name != name:
            raise ConfigError("optimizer state out of order in checkpoint")
        if m.shape != params[name].shape or v.shape != params[name].shape:
            raise ConfigError(f"optimizer state shape mismatch for {name!r}")
        store.m[name] = m
        store.v[name] = v
    reader.end()
    return store, meta, iteration
