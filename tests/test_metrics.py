import hashlib
import json
import math
import tracemalloc
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meirl import metrics
from meirl.dataset import GenerateConfig, generate_dataset
from meirl.errors import ConfigError
from meirl.kinematics import PastTrack
from meirl.mdp import (GridWorld, Policy, cells_to_xy, sample_trajectories, state_distribution,
                       uniform_policy)
from meirl.metrics import (TABLE_COLUMNS, export_csv, export_json, hausdorff, mean_sampled_hd,
                           nll, sampled_hausdorff, table_row, terminal_entropy)
from meirl.synthetic import Demonstration

LN4 = math.log(4.0)


def grid(rows=8, cols=8, res=1.0, seed=0):
    rng = np.random.default_rng(seed)
    return GridWorld(rows=rows, cols=cols, resolution=res,
                     env=rng.random((5, rows, cols)))


def demo_from_future(world, future, speed=4.0, tag="straight"):
    """Wrap a future cell path in a Demonstration with a short synthetic past
    approaching the start cell from the left at constant speed."""
    future = np.asarray(future, dtype=np.int64)
    cx = (future[0, 1] + 0.5) * world.resolution
    cy = (future[0, 0] + 0.5) * world.resolution
    t = np.array([0.0, 0.1, 0.2])
    xy = np.array([[cx - 0.2 * speed, cy], [cx - 0.1 * speed, cy], [cx, cy]])
    return Demonstration(world=world, past=PastTrack(t=t, xy=xy), future=future,
                         expert_speed=speed, seed=0, tag=tag)


def deterministic_policy(rows, cols, action):
    probs = np.zeros((4, rows, cols))
    probs[action] = 1.0
    return Policy(probs=probs)


def straight_future(row, c0, n):
    return [(row, c0 + k) for k in range(n)]


# ---------------------------------------------------------------------------
# coordinate convention

def test_cells_to_xy_convention():
    xy = cells_to_xy(np.array([[2, 5]]), resolution=0.5)
    assert np.allclose(xy, [[2.75, 1.25]])  # x from col, y from row


def test_cells_to_xy_half_cell_offset():
    xy = cells_to_xy(np.array([[0, 0]]), resolution=2.0)
    assert np.allclose(xy, [[1.0, 1.0]])


# ---------------------------------------------------------------------------
# NLL

@pytest.mark.parametrize("n_cells", [2, 5, 15, 26, 40])
def test_nll_uniform_is_ln4_exactly(n_cells):
    w = grid(rows=8, cols=44)
    demo = demo_from_future(w, straight_future(3, 1, n_cells))
    assert nll(uniform_policy(8, 44), demo) == LN4


def test_nll_deterministic_match_is_zero():
    w = grid()
    demo = demo_from_future(w, straight_future(3, 1, 5))
    policy = deterministic_policy(8, 8, 3)  # always "right"
    assert nll(policy, demo) == 0.0


def test_nll_zero_probability_step_is_inf():
    w = grid()
    demo = demo_from_future(w, straight_future(3, 1, 5))
    probs = np.full((4, 8, 8), 0.25)
    probs[:, 3, 2] = [1.0, 0.0, 0.0, 0.0]  # demo moves right from (3,2)
    assert nll(Policy(probs=probs), demo) == float("inf")


def test_nll_mixed_probabilities():
    w = grid()
    demo = demo_from_future(w, straight_future(3, 1, 3))
    probs = np.full((4, 8, 8), 0.25)
    probs[:, 3, 1] = [0.1, 0.1, 0.1, 0.7]
    probs[:, 3, 2] = [0.2, 0.2, 0.2, 0.4]
    expected = -(math.log(0.7) + math.log(0.4)) / 2.0
    assert nll(Policy(probs=probs), demo) == pytest.approx(expected, abs=1e-12)


def test_nll_single_cell_future_rejected():
    # nll scores transitions; a demo with a one-cell future has none, and is
    # refused where it is built, so nll never meets one
    with pytest.raises(ConfigError, match="demo future needs at least two cells, got 1"):
        demo_from_future(grid(), straight_future(3, 1, 2)[:1])


# ---------------------------------------------------------------------------
# Hausdorff distance

def test_hausdorff_identical_sets_zero():
    a = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
    assert hausdorff(a, a) == 0.0


def test_hausdorff_parallel_offset():
    a = np.array([[float(k), 0.0] for k in range(6)])
    b = a + np.array([0.0, 0.75])
    assert hausdorff(a, b) == pytest.approx(0.75, abs=1e-12)


def test_hausdorff_dominated_by_far_point():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.vstack([a, [[5.0, 0.0]]])
    # directed a->b is 0, the far extra point sets the symmetric value
    assert hausdorff(a, b) == pytest.approx(4.0, abs=1e-12)


def test_hausdorff_matches_quadratic_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.normal(size=(20, 2)) * 3.0
        b = rng.normal(size=(15, 2)) * 3.0

        def directed(p, q):
            return max(min(math.dist(x, y) for y in q) for x in p)

        expected = max(directed(a, b), directed(b, a))
        assert hausdorff(a, b) == pytest.approx(expected, abs=1e-12)


def test_hausdorff_bad_shapes_rejected():
    good = np.zeros((3, 2))
    with pytest.raises(ConfigError):
        hausdorff(good, np.zeros(4))
    with pytest.raises(ConfigError):
        hausdorff(np.zeros((3, 3)), good)
    with pytest.raises(ConfigError):
        hausdorff(good, np.zeros((0, 2)))


points = st.lists(
    st.tuples(st.floats(-50, 50, allow_nan=False), st.floats(-50, 50, allow_nan=False)),
    min_size=1, max_size=12,
).map(lambda pts: np.array(pts, dtype=np.float64))


@settings(max_examples=60, deadline=None)
@given(a=points, b=points)
def test_hausdorff_symmetry(a, b):
    assert hausdorff(a, b) == hausdorff(b, a)


@settings(max_examples=60, deadline=None)
@given(a=points, b=points, c=points)
def test_hausdorff_triangle_inequality(a, b, c):
    assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-9


# ---------------------------------------------------------------------------
# sampled HD and terminal entropy

def test_mean_sampled_hd_deterministic_policy_zero():
    w = grid()
    demo = demo_from_future(w, straight_future(3, 1, 5))
    policy = deterministic_policy(8, 8, 3)
    assert mean_sampled_hd([policy], demo, n_samples=20)[0] == 0.0


def test_mean_sampled_hd_seeded():
    w = grid()
    demo = demo_from_future(w, straight_future(3, 1, 5))
    policy = uniform_policy(8, 8)
    a = mean_sampled_hd([policy], demo, n_samples=50, seed=3)[0]
    b = mean_sampled_hd([policy], demo, n_samples=50, seed=3)[0]
    c = mean_sampled_hd([policy], demo, n_samples=50, seed=4)[0]
    assert a == b
    assert a > 0.0
    assert a != c


def per_sample_mean_hd(policy, demo, n_samples, seed=0):
    """The reference sampled HD: one float `hausdorff` call per rollout on the
    cell centres, summed in sample order."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rollouts = sample_trajectories([policy], demo.start, demo.horizon,
                                   n_samples, rng)[0]
    demo_xy = cells_to_xy(demo.future, demo.world.resolution)
    total = 0.0
    for k in range(n_samples):
        cells = np.stack(np.divmod(rollouts[k], demo.world.cols), axis=1)
        total += hausdorff(demo_xy, cells_to_xy(cells, demo.world.resolution))
    return total / n_samples


def random_cells(rng, rows, cols, *lead):
    return np.stack([rng.integers(0, rows, size=lead), rng.integers(0, cols, size=lead)],
                    axis=-1)


# a chunk budget of 1 to 3 rollouts at the longest horizons, so that sample
# counts up to 60 run through many chunks
SMALL_CHUNKS = st.integers(1, 3 * 40 * 40 * 4)


@settings(max_examples=80, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 12), h_future=st.integers(1, 40),
       h_rollout=st.integers(1, 40), n=st.integers(1, 60), chunk_bytes=SMALL_CHUNKS,
       seed=st.integers(0, 2**32 - 1))
@example(rows=1, cols=9, h_future=40, h_rollout=40, n=60, chunk_bytes=6400, seed=0)
@example(rows=7, cols=1, h_future=1, h_rollout=40, n=17, chunk_bytes=160, seed=1)
def test_sampled_hausdorff_matches_hausdorff_per_rollout(rows, cols, h_future, h_rollout,
                                                          n, chunk_bytes, seed):
    rng = np.random.default_rng(seed)
    future = random_cells(rng, rows, cols, h_future)
    rollouts = random_cells(rng, rows, cols, n, h_rollout)
    flat = rollouts[..., 0] * cols + rollouts[..., 1]
    with mock.patch.object(metrics, "HD_CHUNK_BYTES", chunk_bytes):
        got = {res: sampled_hausdorff(flat, future, (rows, cols), res)
               for res in (1.0, 0.5, 0.7, 0.3, 1 / 3)}
    d2 = [round(h * h) for h in got[1.0]]  # exact, once the bitwise check holds
    for res, dists in got.items():
        assert dists.shape == (n,)
        want = np.array([hausdorff(cells_to_xy(future, res), cells_to_xy(r, res))
                         for r in rollouts])
        if res in (1.0, 0.5):  # the scaled coordinates are exact: bitwise
            assert np.array_equal(dists, want)
            continue
        # within one ulp of the exact distance sqrt(d2) * res ...
        with localcontext() as ctx:
            ctx.prec = 50
            exact = np.array([float(Decimal(k).sqrt() * Decimal(res)) for k in d2])
        assert np.all(np.abs(dists - exact) <= np.spacing(exact))
        # ... while `hausdorff` rounds each coordinate before it subtracts, so
        # it may miss by a few ulp of the largest coordinate on short distances
        extent = max(rows, cols) * res
        assert np.all(np.abs(dists - want) <= 4 * np.finfo(float).eps * (want + extent))


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(8, 14), cols=st.integers(8, 14), horizon=st.integers(2, 40),
       n=st.integers(1, 60), chunk_bytes=SMALL_CHUNKS, seed=st.integers(0, 2**32 - 1))
def test_mean_sampled_hd_equals_the_per_sample_loop_bitwise(rows, cols, horizon, n,
                                                              chunk_bytes, seed):
    rng = np.random.default_rng(seed)
    w = grid(rows=rows, cols=cols, seed=seed % 1000)
    start = (int(rng.integers(rows)), int(rng.integers(cols)))
    walk = np.stack(np.divmod(sample_trajectories([uniform_policy(rows, cols)], start, horizon,
                                                  1, rng)[0, 0], cols), axis=1)
    demo = demo_from_future(w, walk)
    policy = Policy(probs=rng.dirichlet(np.ones(4), size=(rows, cols)).transpose(2, 0, 1))
    with mock.patch.object(metrics, "HD_CHUNK_BYTES", chunk_bytes):
        got = mean_sampled_hd([policy], demo, n_samples=n, seed=seed % 97)[0]
    assert got == per_sample_mean_hd(policy, demo, n, seed=seed % 97)


# sha256 of mean_sampled_hd at 200 samples as <f8, for the uniform policy and
# two seeded Dirichlet policies, over the test demos of a fixed 16x16 dataset:
# a rollout step or a distance bit that moves, or a change in the order the
# sampler draws or the mean sums, changes it
PINNED_SAMPLED_HD_DIGEST = "aba4555f4768096e8c17fd98c13c689b02336e51efcdfa845a8840cfd0bb3495"


def test_sampled_hd_is_pinned():
    _, test = generate_dataset(GenerateConfig(n_demos=24, split=0.5, seed=3, rows=16, cols=16))
    policies = [uniform_policy(16, 16)] + [
        Policy(probs=np.random.default_rng(seed).dirichlet(
            np.full(4, alpha), size=(16, 16)).transpose(2, 0, 1))
        for seed, alpha in ((1, 1.0), (2, 0.3))]
    digest = hashlib.sha256()
    for policy in policies:
        for k, demo in enumerate(test):
            hd = mean_sampled_hd([policy], demo, n_samples=200, seed=k)[0]
            digest.update(np.array(hd, dtype="<f8").tobytes())
    assert digest.hexdigest() == PINNED_SAMPLED_HD_DIGEST


def test_sampled_hausdorff_memory_is_bounded_per_chunk():
    # unchunked, the two (n, H) int32 blocks of 200,000 rollouts at H = 25
    # would be 40 MB
    rng = np.random.default_rng(2)
    future, rollouts = random_cells(rng, 16, 16, 25), rng.integers(0, 16 * 16, size=(200_000, 25))
    tracemalloc.start()
    try:
        sampled_hausdorff(rollouts, future, (16, 16), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beyond the float64 results, one chunk's working set
    assert peak - 8 * len(rollouts) < 2 * metrics.HD_CHUNK_BYTES


def test_terminal_entropy_deterministic_zero():
    policy = deterministic_policy(8, 8, 3)
    assert terminal_entropy(state_distribution([policy], [(3, 1)], [5])[0]) == 0.0


def test_terminal_entropy_uniform_one_step():
    # four equally likely neighbors from an interior cell
    policy = uniform_policy(9, 9)
    assert terminal_entropy(state_distribution([policy], [(4, 4)], [2])[0]) == LN4


def test_terminal_entropy_spreads_with_horizon():
    policy = uniform_policy(17, 17)
    e1, e5 = map(terminal_entropy, state_distribution([policy] * 2, [(8, 8)] * 2, [2, 6]))
    assert e5 > e1


# ---------------------------------------------------------------------------
# aggregation and export

def test_eval_result_summary_means_and_se():
    s = table_row("ours", [1.0, 2.0, 3.0], [0.5, 0.7, 0.6], [1.0, 1.0, 1.0])
    assert s["method"] == "ours"
    assert s["hd"] == pytest.approx(2.0)
    assert s["hd_se"] == pytest.approx(1.0 / math.sqrt(3.0))
    assert s["nll"] == pytest.approx(0.6)
    assert s["n_demos"] == 3
    assert s["n_infinite_nll"] == 0
    assert s["terminal_entropy"] == pytest.approx(1.0)
    assert sorted(s) == sorted(TABLE_COLUMNS)


def test_eval_result_counts_infinite_nll():
    s = table_row("bc", [1.0, 1.0], [0.5, float("inf")])
    assert s["n_infinite_nll"] == 1
    assert math.isinf(s["nll"]) and math.isnan(s["nll_se"])
    assert s["terminal_entropy"] is None


def test_eval_result_ekf_has_no_nll():
    s = table_row("ekf", [2.0])
    assert s["nll"] is None and s["nll_se"] is None
    assert s["n_infinite_nll"] == 0


def test_eval_result_single_demo_zero_se():
    s = table_row("ours", [1.5], [0.4])
    assert s["hd_se"] == 0.0 and s["nll_se"] == 0.0


def table_rows():
    # in table order, as eval makes them
    return [table_row(m, [1.0, 2.0], None if m == "ekf" else [0.5, 0.6], [0.9, 1.1])
            for m in ("ekf", "bc", "random", "irl_nokin", "ours")]


def test_export_csv_row_order_and_na(tmp_path):
    path = tmp_path / "table.csv"
    export_csv(table_rows(), path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert tuple(header) == TABLE_COLUMNS
    methods = [ln.split(",")[0] for ln in lines[1:]]
    assert methods == ["ekf", "bc", "random", "irl_nokin", "ours"]
    ekf = dict(zip(header, lines[1].split(",")))
    assert ekf["nll"] == "N.A." and ekf["nll_se"] == "N.A."
    assert ekf["hd"] == "1.5" and ekf["n_demos"] == "2" and ekf["n_infinite_nll"] == "0"
    assert path.read_text().endswith("\n")
    # rows are written in the order given
    export_csv(table_rows()[::-1], path)
    assert [ln.split(",")[0] for ln in path.read_text().splitlines()[1:]] == methods[::-1]


def test_export_csv_byte_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(table_rows(), p1)
    export_csv(table_rows(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_export_json_round_trip(tmp_path):
    path = tmp_path / "table.json"
    export_json(table_rows(), path)
    with open(path) as f:
        data = json.load(f)
    assert [m["method"] for m in data["methods"]] == \
        ["ekf", "bc", "random", "irl_nokin", "ours"]
    assert data["methods"][0]["nll"] is None
    assert data["methods"][4]["nll"] == pytest.approx(0.55)
    assert data["methods"] == table_rows()


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_non_finite_scores_are_null_in_json_and_kept_in_csv(tmp_path):
    # strict JSON has no Infinity or NaN; n_infinite_nll says why nll is missing
    rows = [table_row("bc", [1.0, 1.0], [0.5, math.inf])]
    export_json(rows, tmp_path / "table.json")
    export_csv(rows, tmp_path / "table.csv")
    (row,) = strict_json((tmp_path / "table.json").read_text())["methods"]
    assert row["nll"] is None and row["nll_se"] is None
    assert row["n_infinite_nll"] == 1 and row["hd"] == 1.0
    line = (tmp_path / "table.csv").read_text().splitlines()[1].split(",")
    assert dict(zip(TABLE_COLUMNS, line))["nll"] == "inf"
    assert dict(zip(TABLE_COLUMNS, line))["nll_se"] == "nan"
