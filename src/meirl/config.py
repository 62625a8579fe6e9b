"""Config dataclass <-> JSON plumbing with unknown-key rejection."""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

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
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
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
    """Write `obj` to a sibling file and rename it over `path`, so a write that
    stops partway leaves no half-written JSON at `path`."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
