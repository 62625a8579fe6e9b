"""Binary record round trips, manifest bookkeeping, split arithmetic, determinism."""

import filecmp
import math
import os
import struct
import warnings

import numpy as np
import pytest

from meirl import config, dataset
from meirl.config import from_dict
from meirl.dataset import (GenerateConfig, generate_dataset, load_dataset, load_demo,
                           save_dataset, save_demo, split_counts)
from meirl.errors import ConfigError
from meirl.synthetic import generate_demonstration, generate_world

TINY = dict(n_demos=6, split=0.5, rows=16, cols=16, seed=3,
            layouts=("straight", "tee"), speeds=(2.0, 8.0))


def tiny_config(**overrides):
    return GenerateConfig(**{**TINY, **overrides})


def one_demo(seed=0):
    world = generate_world(seed=seed, rows=16, cols=16, layout="straight")
    return generate_demonstration(world, speed=8.0, seed=seed)


def test_record_roundtrip(tmp_path):
    demo = one_demo(seed=5)
    path = tmp_path / "demo.bin"
    save_demo(path, demo)
    loaded = load_demo(path)
    assert np.array_equal(loaded.world.env,
                          demo.world.env.astype("<f4").astype(np.float64))
    assert loaded.world.resolution == demo.world.resolution
    assert np.array_equal(loaded.past.t, demo.past.t)
    assert np.array_equal(loaded.past.xy, demo.past.xy)
    assert np.array_equal(loaded.future, demo.future)
    assert loaded.expert_speed == demo.expert_speed
    assert loaded.seed == demo.seed
    assert loaded.tag == demo.tag


def test_truncated_record_rejected(tmp_path):
    demo = one_demo()
    path = tmp_path / "demo.bin"
    save_demo(path, demo)
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(ConfigError, match="truncated"):
        load_demo(path)
    path.write_bytes(data + b"\x00")
    with pytest.raises(ConfigError, match="trailing"):
        load_demo(path)


def test_record_with_infinite_resolution_rejected(tmp_path):
    path = tmp_path / "demo.bin"
    save_demo(path, one_demo())
    data = path.read_bytes()
    # the resolution is the f64 after the u32 rows and cols
    path.write_bytes(data[:8] + struct.pack("<d", math.inf) + data[16:])
    with pytest.raises(ConfigError, match="resolution must be finite and positive"):
        load_demo(path)


def past_offset(rows, cols):
    """Byte offset of a record's first (t, x, y) past entry."""
    return 16 + 5 * rows * cols * 4 + 4


def test_record_with_infinite_timestamps_names_them_without_a_warning(tmp_path):
    path = tmp_path / "demo.bin"
    save_demo(path, one_demo())
    data = bytearray(path.read_bytes())
    at = past_offset(16, 16)
    # the first two timestamps: inf - inf is what warned before the finiteness check
    data[at:at + 8] = data[at + 24:at + 32] = struct.pack("<d", math.inf)
    path.write_bytes(bytes(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="track contains non-finite values"):
            load_demo(path)


@pytest.mark.parametrize("speed", [math.nan, math.inf, 0.0])
def test_record_with_a_speed_that_is_not_finite_and_positive_rejected(tmp_path, speed):
    path = tmp_path / "demo.bin"
    save_demo(path, one_demo())
    data = path.read_bytes()
    # the speed is the f64 before the i64 seed and the u8 tag
    path.write_bytes(data[:-17] + struct.pack("<d", speed) + data[-9:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="expert speed must be finite and positive"):
            load_demo(path)


def test_split_arithmetic():
    assert split_counts(660, 0.9) == 594
    assert 660 - split_counts(660, 0.9) == 66
    assert split_counts(8, 0.75) == 6
    assert split_counts(5, 1.0) == 5


def test_generate_dataset_split_and_determinism():
    train, test = generate_dataset(tiny_config())
    assert len(train) == 3 and len(test) == 3
    train2, test2 = generate_dataset(tiny_config())
    for a, b in zip(train + test, train2 + test2):
        assert np.array_equal(a.future, b.future)
        assert np.array_equal(a.world.env, b.world.env)
        assert a.tag == b.tag


def test_save_load_dataset(tmp_path):
    train, test = generate_dataset(tiny_config())
    manifest = save_dataset(tmp_path / "ds", train, test, tiny_config())
    assert manifest["n_train"] == 3 and manifest["n_test"] == 3
    assert manifest["format"] == "meirl-demos-v1"
    assert sum(manifest["tag_counts"]["train"].values()) == 3
    ltrain, ltest, lmanifest = load_dataset(tmp_path / "ds")
    assert lmanifest == manifest
    assert len(ltrain) == 3 and len(ltest) == 3
    for a, b in zip(train, ltrain):
        assert np.array_equal(a.future, b.future)
        assert a.tag == b.tag
        assert np.array_equal(a.world.env.astype("<f4"), b.world.env.astype("<f4"))


def test_load_refuses_a_manifest_that_is_not_an_object(tmp_path):
    (tmp_path / "manifest.json").write_text("[]")
    with pytest.raises(ConfigError, match="unrecognized dataset format"):
        load_dataset(tmp_path)


def test_save_refuses_overwrite(tmp_path):
    train, test = generate_dataset(tiny_config())
    save_dataset(tmp_path / "ds", train, test, tiny_config())
    with pytest.raises(ConfigError, match="already exists"):
        save_dataset(tmp_path / "ds", train, test, tiny_config())
    save_dataset(tmp_path / "ds", train, test, tiny_config(), overwrite=True)


def test_overwrite_with_fewer_demos_leaves_only_the_new_records(tmp_path):
    save_dataset(tmp_path / "ds", *generate_dataset(tiny_config()), tiny_config())
    fewer = tiny_config(n_demos=2, split=1.0)
    manifest = save_dataset(tmp_path / "ds", *generate_dataset(fewer), fewer, overwrite=True)
    for split_name in ("train", "test"):
        held = sorted(p.name for p in (tmp_path / "ds" / split_name).iterdir())
        assert held == [f"demo_{i:05d}.bin" for i in range(manifest[f"n_{split_name}"])]


def test_overwrite_that_stops_partway_leaves_no_loadable_dataset(tmp_path, monkeypatch):
    train, test = generate_dataset(tiny_config())
    save_dataset(tmp_path / "ds", train, test, tiny_config())
    real_save = dataset.save_demo
    calls = []

    def fail_on_third(path, demo):
        calls.append(path)
        if len(calls) == 3:
            raise OSError("disk full")
        real_save(path, demo)

    monkeypatch.setattr(dataset, "save_demo", fail_on_third)
    new_train, new_test = generate_dataset(tiny_config(seed=4))
    with pytest.raises(OSError):
        save_dataset(tmp_path / "ds", new_train, new_test, tiny_config(seed=4), overwrite=True)
    # two new records sit next to four old ones; none of them may load as a dataset
    with pytest.raises(ConfigError):
        load_dataset(tmp_path / "ds")


def test_manifest_write_that_stops_partway_leaves_no_manifest(tmp_path, monkeypatch):
    train, test = generate_dataset(tiny_config())

    def stop_halfway(fd):  # write_file's sync of the manifest; records are not synced
        os.ftruncate(fd, os.fstat(fd).st_size // 2)
        raise OSError("disk full")

    monkeypatch.setattr(config.os, "fsync", stop_halfway)
    with pytest.raises(OSError):
        save_dataset(tmp_path / "ds", train, test, tiny_config())
    monkeypatch.undo()
    assert sorted(p.name for p in (tmp_path / "ds").iterdir()) == ["test", "train"]
    with pytest.raises(ConfigError):
        load_dataset(tmp_path / "ds")


def test_missing_record_listed(tmp_path):
    train, test = generate_dataset(tiny_config())
    save_dataset(tmp_path / "ds", train, test, tiny_config())
    victim = tmp_path / "ds" / "test" / "demo_00001.bin"
    victim.unlink()
    with pytest.raises(ConfigError, match="demo_00001"):
        load_dataset(tmp_path / "ds")


def test_dataset_bytes_deterministic(tmp_path):
    for name in ("a", "b"):
        train, test = generate_dataset(tiny_config())
        save_dataset(tmp_path / name, train, test, tiny_config())
    files = sorted(p.relative_to(tmp_path / "a")
                   for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert filecmp.cmp(tmp_path / "a" / rel, tmp_path / "b" / rel, shallow=False), rel


def test_config_validation():
    with pytest.raises(ConfigError):
        GenerateConfig(split=0.0)
    with pytest.raises(ConfigError):
        GenerateConfig(layouts=("spaghetti",))
    with pytest.raises(ConfigError):
        GenerateConfig(horizon_min=10)
    with pytest.raises(ConfigError):
        GenerateConfig(speeds=(0.0,))
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        GenerateConfig(seed=-1)


def test_config_from_dict_round_trip():
    cfg = from_dict(GenerateConfig, {"n_demos": 10, "speeds": [2.0, 4.0]})
    assert cfg.n_demos == 10
    assert cfg.speeds == (2.0, 4.0)
    with pytest.raises(ConfigError, match="unknown"):
        from_dict(GenerateConfig, {"n_demo": 10})
    with pytest.raises(ConfigError):
        from_dict(GenerateConfig, "not a dict")


def test_balance_through_config():
    cfg = tiny_config(layouts=("straight",), balance={"straight": 1.0})
    train, test = generate_dataset(cfg)
    assert all(d.tag == "straight" for d in train + test)
