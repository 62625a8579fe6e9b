"""File plumbing: config dataclasses <-> JSON with unknown-key rejection, the
one file writer (`write_file`; only `dataset.save_demo` writes around it) and
the one binary decoder (`Reader`).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError


def _fits(value, default) -> bool:
    """Whether `value` has the type of a field whose default is `default`: a
    bool is never a number, a float field also takes an int, and a tuple field
    takes a list or tuple whose items fit its default's first item."""
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and \
            (not default or all(_fits(item, default[0]) for item in value))
    return isinstance(value, type(default))


def from_dict(cls, data: dict):
    """Build a config dataclass from a JSON-shaped dict. Unknown keys and values
    of the wrong type are errors (fields that default to None check their own);
    JSON arrays become tuples so defaults and round-tripped configs compare equal."""
    if not isinstance(data, dict):
        raise ConfigError(f"{cls.__name__} config must be a JSON object, got {type(data).__name__}")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {unknown}")
    kwargs = {}
    for name, value in data.items():
        default = defaults[name]
        if default is not None and not _fits(value, default):
            raise ConfigError(f"{cls.__name__} field {name!r} must be of type "
                              f"{type(default).__name__} (default {default!r}), "
                              f"got {value!r}")
        if isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    return cls(**kwargs)


def _jsonify(value):
    """`value` with tuples as lists and non-finite floats as None, which
    strict JSON can hold."""
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def to_dict(cfg) -> dict:
    # JSON-native types throughout, so a round trip through disk compares equal
    return _jsonify(dataclasses.asdict(cfg))


def load_json(path):
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON in {path}: {e}") from e


def dump_json(path, obj) -> None:
    """`obj` as sorted, indented, strict JSON, through `write_file`: a
    non-finite float is written as null."""
    text = json.dumps(_jsonify(obj), sort_keys=True, indent=2, allow_nan=False)
    write_file(path, (text + "\n").encode())


def write_file(path, data: bytes) -> None:
    """Put `data` at `path` through a flushed and fsynced sibling `.tmp` file
    renamed over it, so `path` holds either its previous bytes or all of `data`."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_csv(path, header, rows) -> None:
    """The header and then each row as one comma-joined line of str() items."""
    write_file(path, "".join(",".join(map(str, row)) + "\n" for row in [header, *rows]).encode())


class Reader:
    """Decodes a binary file held in memory front to back. Each read checks its
    length, as a Python int, against the bytes left before it slices or
    allocates, so a corrupt length, a short read or trailing bytes raise
    ConfigError naming `what`, the kind of record, never MemoryError."""

    def __init__(self, buf: bytes, what: str):
        self.buf, self.what, self.pos = buf, what, 0

    def take(self, n: int) -> bytes:
        if n > len(self.buf) - self.pos:
            raise ConfigError(f"truncated {self.what}")
        self.pos += n
        return self.buf[self.pos - n:self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype, shape) -> np.ndarray:
        """The next `shape` values of `dtype`, copied out as native float64 or int64."""
        dtype = np.dtype(dtype)
        raw = self.take(math.prod(shape) * dtype.itemsize)
        try:  # a zero dimension next to huge ones still overflows numpy's size
            arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
        except ValueError as e:
            raise ConfigError(f"{self.what} has an array of shape {tuple(shape)}: {e}") from e
        return arr.astype(np.int64 if dtype.kind in "iu" else np.float64)

    def end(self) -> None:
        if self.pos != len(self.buf):
            raise ConfigError(f"trailing bytes after the last {self.what}")
