"""The one file writer and the one record reader.

Every output goes through `config.write_file`, so a write that fails before
its rename leaves the previous bytes and no `.tmp` sibling. Every binary input
goes through `config.Reader`, so any truncation or single-bit flip of a
checkpoint or a demo record either loads or raises ConfigError: never another
exception, a warning, or an allocation sized by a corrupt header.
"""

import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from meirl import config
from meirl.checkpoint import load_checkpoint, save_checkpoint
from meirl.cli import main
from meirl.config import Reader, write_file
from meirl.dataset import load_demo, save_demo
from meirl.errors import ConfigError
from meirl.maps import save_map_csv, save_map_pgm
from meirl.metrics import export_csv, export_json, table_row
from meirl.nn import ParameterStore
from meirl.synthetic import generate_demonstration, generate_world
from meirl.trainer import write_report, write_timings


def saved(save, *args) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "file"
        save(path, *args)
        return path.read_bytes()


def loaded(load, data: bytes):
    """`load` of a file holding `data`, with every warning raised as an error."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "file"
        path.write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return load(path)


# ---------------------------------------------------------------------------
# the writer

def cli(*argv):
    """Runs the CLI; exit 3 is how it reports an OSError, so raise one."""
    rc = main([str(a) for a in argv])
    if rc == 3:
        raise OSError("the command exited 3")
    assert rc == 0


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data") / "ds"
    cli("generate", "--out", d, "--demos", 4, "--rows", 16, "--cols", 16, "--split", 0.5,
        "--seed", 3)
    return d


def table(variant):
    return [table_row("ekf", [1.0 + variant])]


# each output: its file name and a write of it that differs by `variant`
OUTPUTS = {
    "report": ("report.csv", lambda out, v, _: write_report(
        [{"iteration": v, "nll": 1.5, "grad_norm": 0.1, "vi_sweeps": 9, "svf_l1": 0.2}],
        out / "report.csv")),
    "timings": ("timings.csv", lambda out, v, _: write_timings(
        [{"iteration": 0, "seconds": 1.0 + v}], out / "timings.csv")),
    "table_csv": ("table.csv", lambda out, v, _: export_csv(table(v), out / "table.csv")),
    "table_json": ("table.json", lambda out, v, _: export_json(table(v), out / "table.json")),
    "map_csv": ("svf.csv", lambda out, v, _: save_map_csv(out / "svf.csv",
                                                          np.full((2, 3), 1.0 + v))),
    "map_pgm": ("svf.pgm", lambda out, v, _: save_map_pgm(
        out / "svf.pgm", np.arange(6.0).reshape(2, 3) ** (1 + v))),
    "samples": ("samples.csv", lambda out, v, data: cli(
        "predict", "--dataset", data, "--out", out, "--method", "random", "--samples", 3,
        "--seed", v)),
    "trajectory": ("trajectory.csv", lambda out, v, data: cli(
        "predict", "--dataset", data, "--out", out, "--method", "ekf", "--demo", v)),
    "checkpoint": ("checkpoint.ckpt", lambda out, v, _: save_checkpoint(
        out / "checkpoint.ckpt", ParameterStore.create({"w": np.full(3, 1.0 + v)}, 0.1))),
}


@pytest.mark.parametrize("output", sorted(OUTPUTS))
def test_a_write_that_fails_before_its_rename_keeps_the_previous_file(
        output, dataset_dir, tmp_path, monkeypatch):
    name, write = OUTPUTS[output]
    write(tmp_path, 0, dataset_dir)
    before = (tmp_path / name).read_bytes()
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst).name == name:
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(config.os, "replace", replace)
    with pytest.raises(OSError):
        write(tmp_path, 1, dataset_dir)
    monkeypatch.undo()
    assert (tmp_path / name).read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))
    write(tmp_path, 1, dataset_dir)  # the variant really writes other bytes
    assert (tmp_path / name).read_bytes() != before


def test_a_constant_map_writes_all_zero_pgm_samples(tmp_path):
    save_map_pgm(tmp_path / "flat.pgm", np.full((3, 4), 2.5))
    assert (tmp_path / "flat.pgm").read_bytes() == b"P5\n4 3\n65535\n" + bytes(2 * 12)


@pytest.mark.parametrize("writer, grid, message", [
    (save_map_csv, np.zeros(4), "map must be 2-d, got shape (4,)"),
    (save_map_pgm, np.zeros((1, 2, 2)), "map must be 2-d, got shape (1, 2, 2)"),
    (save_map_pgm, np.array([[0.0, np.nan]]), "map contains non-finite values"),
], ids=["csv_1d", "pgm_3d", "pgm_nan"])
def test_map_writers_refuse_a_malformed_map(tmp_path, writer, grid, message):
    with pytest.raises(ConfigError) as e:
        writer(tmp_path / "map", grid)
    assert str(e.value) == message
    assert not (tmp_path / "map").exists()


def test_dump_json_writes_strict_json(tmp_path):
    path = tmp_path / "out.json"
    config.dump_json(path, {"a": [math.inf, -math.inf, math.nan, 1.5], "b": {"c": (math.nan, 2)}})
    assert "Infinity" not in path.read_text() and "NaN" not in path.read_text()
    assert json.loads(path.read_text()) == {"a": [None, None, None, 1.5], "b": {"c": [None, 2]}}


def test_write_file_puts_every_byte_in_place(tmp_path):
    write_file(tmp_path / "f", b"old")
    write_file(tmp_path / "f", bytes(range(256)) * 3)
    assert (tmp_path / "f").read_bytes() == bytes(range(256)) * 3
    assert [p.name for p in tmp_path.iterdir()] == ["f"]


# ---------------------------------------------------------------------------
# the reader

def test_reader_checks_each_length_before_it_allocates():
    reader = Reader(b"\x01\x02\x03", "test record")
    assert reader.unpack("<H") == (0x0201,)
    with pytest.raises(ConfigError, match="truncated test record"):
        reader.array("<f8", (2**32, 2**32))  # 2**64 values would not fit in memory
    with pytest.raises(ConfigError, match="shape"):
        reader.array("<f8", (0, 2**62, 2**62))  # no bytes, but too big for numpy
    with pytest.raises(ConfigError, match="trailing bytes after the last test record"):
        reader.end()
    assert reader.take(1) == b"\x03"
    reader.end()


CHECKPOINT = saved(save_checkpoint, ParameterStore.create(
    {"kernel": np.arange(6.0).reshape(2, 3), "bias": np.ones(2)}, 0.01),
    {"arch": {"kind": "two_stage"}}, 3)
# the first array record's ndim byte, then the high byte of its first dimension
NDIM = CHECKPOINT.index(b"kernel") + len(b"kernel")
FIRST_DIM_HIGH = NDIM + 1 + 3


def load_or_refuse_checkpoint(data: bytes) -> None:
    try:
        loaded(load_checkpoint, data)
    except ConfigError:
        pass


@settings(max_examples=300, deadline=None)
@given(at=st.integers(0, len(CHECKPOINT) - 1), bit=st.integers(0, 7))
@example(at=FIRST_DIM_HIGH, bit=5)  # names a 2**29 x 3 array: MemoryError unchecked
@example(at=NDIM, bit=3)  # a zero dimension next to huge ones: too big for numpy
@example(at=NDIM, bit=6)  # 66 dimensions, more than numpy's 64
def test_a_checkpoint_with_one_flipped_bit_loads_or_raises_config_error(at, bit):
    load_or_refuse_checkpoint(CHECKPOINT[:at] + bytes([CHECKPOINT[at] ^ 1 << bit])
                              + CHECKPOINT[at + 1:])


@settings(max_examples=100, deadline=None)
@given(size=st.integers(0, len(CHECKPOINT) - 1))
def test_a_truncated_checkpoint_raises_config_error(size):
    with pytest.raises(ConfigError):
        loaded(load_checkpoint, CHECKPOINT[:size])


def demo_record() -> bytes:
    # expert speed 1.0, whose f64 flips to inf at bit 6 of its high byte
    world = generate_world(seed=1, rows=8, cols=8, layout="straight")
    return saved(save_demo, generate_demonstration(world, speed=1.0, seed=2))


DEMO = demo_record()
SPEED_HIGH = len(DEMO) - 1 - 8 - 1  # before the u8 tag and i64 seed


def check_demo(data: bytes) -> None:
    """A record either loads as a valid demo, which saves back to the same
    bytes, or raises ConfigError."""
    try:
        demo = loaded(load_demo, data)
    except ConfigError:
        return
    assert 0 < demo.expert_speed < math.inf
    assert saved(save_demo, demo) == data


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(at=st.integers(0, len(DEMO) - 1), bit=st.integers(0, 7))
@example(at=SPEED_HIGH, bit=6)  # an infinite expert speed
def test_a_demo_record_with_one_flipped_bit_loads_or_raises_config_error(at, bit):
    check_demo(DEMO[:at] + bytes([DEMO[at] ^ 1 << bit]) + DEMO[at + 1:])


@settings(max_examples=100, deadline=None)
@given(size=st.integers(0, len(DEMO) - 1))
def test_a_truncated_demo_record_raises_config_error(size):
    with pytest.raises(ConfigError):
        loaded(load_demo, DEMO[:size])
