"""Binary checkpoint format.

Layout (all integers little-endian):

    magic "MEIRL1"
    u32 meta_len, meta JSON (utf-8)   -- architecture + config + counters
    u32 n_params, then per parameter: name record + array record
    u8  has_adam; if set: per parameter two array records (m then v, same order)

An array record is: u16 name_len, name utf-8, u8 ndim, ndim * u32 dims,
then the values as little-endian float64, row-major.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .nn import ParameterStore

MAGIC = b"MEIRL1"


def _write_array(fh, name: str, arr: np.ndarray) -> None:
    raw = name.encode("utf-8")
    fh.write(struct.pack("<H", len(raw)))
    fh.write(raw)
    fh.write(struct.pack("<B", arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<I", dim))
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(fh, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise ConfigError("checkpoint truncated")
    return buf


def _read_array(fh):
    (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
    name = _read_exact(fh, name_len).decode("utf-8")
    (ndim,) = struct.unpack("<B", _read_exact(fh, 1))
    shape = tuple(struct.unpack("<I", _read_exact(fh, 4))[0] for _ in range(ndim))
    count = int(np.prod(shape)) if shape else 1
    data = np.frombuffer(_read_exact(fh, 8 * count), dtype="<f8").astype(np.float64)
    return name, data.reshape(shape)


def save_checkpoint(path, store: ParameterStore, meta: dict | None = None,
                    iteration: int = 0) -> None:
    meta = dict(meta or {})
    meta["iteration"] = int(iteration)
    meta["adam"] = {
        "learning_rate": store.learning_rate,
        "beta1": store.beta1,
        "beta2": store.beta2,
        "eps": store.eps,
        "step": store.step,
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    # write a sibling file and rename it over the target, so a crash mid-write
    # leaves the previous checkpoint intact
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(struct.pack("<I", len(store.params)))
            for name, arr in store.params.items():
                _write_array(fh, name, arr)
            fh.write(struct.pack("<B", 1))
            for name in store.params:
                _write_array(fh, name, store.m[name])
                _write_array(fh, name, store.v[name])
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path):
    """Returns (ParameterStore, meta dict, iteration)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"checkpoint not found: {path}")
    with open(path, "rb") as fh:
        if _read_exact(fh, len(MAGIC)) != MAGIC:
            raise ConfigError(f"{path} is not a checkpoint (bad magic)")
        (meta_len,) = struct.unpack("<I", _read_exact(fh, 4))
        meta = json.loads(_read_exact(fh, meta_len).decode("utf-8"))
        (n_params,) = struct.unpack("<I", _read_exact(fh, 4))
        params = {}
        for _ in range(n_params):
            name, arr = _read_array(fh)
            if name in params:
                raise ConfigError(f"duplicate parameter {name!r} in checkpoint")
            params[name] = arr
        adam = meta.get("adam", {})
        store = ParameterStore.create(params, adam.get("learning_rate", 1e-3))
        store.beta1 = float(adam.get("beta1", store.beta1))
        store.beta2 = float(adam.get("beta2", store.beta2))
        store.eps = float(adam.get("eps", store.eps))
        store.step = int(adam.get("step", 0))
        (has_adam,) = struct.unpack("<B", _read_exact(fh, 1))
        if has_adam:
            for name in params:
                m_name, m = _read_array(fh)
                v_name, v = _read_array(fh)
                if m_name != name or v_name != name:
                    raise ConfigError("optimizer state out of order in checkpoint")
                if m.shape != params[name].shape or v.shape != params[name].shape:
                    raise ConfigError(f"optimizer state shape mismatch for {name!r}")
                store.m[name] = m
                store.v[name] = v
    return store, meta, int(meta.get("iteration", 0))
