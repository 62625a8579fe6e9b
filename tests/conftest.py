import struct

import numpy as np
import pytest
from hypothesis import strategies as st

from meirl.checkpoint import MAGIC
from meirl.mdp import GridWorld

# checkpoint meta blocks that must be refused: bytes that are not UTF-8, text
# that is not JSON, JSON that is not an object, and entries of the wrong type
CORRUPT_META = {"not_utf8": b'{"iteration": "\xff"}', "not_json": b'{"iteration": 1',
                "not_object": b"[]", "adam_not_object": b'{"adam": []}',
                "adam_not_number": b'{"adam": {"learning_rate": "x"}}',
                "iteration_not_int": b'{"iteration": []}'}


def with_meta_block(raw: bytes, meta: bytes) -> bytes:
    """A checkpoint's bytes with its meta block replaced by `meta`."""
    (old_len,) = struct.unpack("<I", raw[len(MAGIC):len(MAGIC) + 4])
    rest = raw[len(MAGIC) + 4 + old_len:]
    return MAGIC + struct.pack("<I", len(meta)) + meta + rest


# boolean grid masks from 1x1 to 9x9
BOOL_MASKS = st.integers(1, 9).flatmap(lambda rows: st.integers(1, 9).flatmap(
    lambda cols: st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols).map(
        lambda bits: np.array(bits).reshape(rows, cols))))


def rand_env(rng, rows, cols):
    return rng.random((5, rows, cols))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_world(rows=8, cols=8, resolution=1.0, seed=0):
    r = np.random.default_rng(seed)
    return GridWorld(rows=rows, cols=cols, resolution=resolution,
                     env=rand_env(r, rows, cols))
