"""Release gate: nine end-to-end properties, one test each.

Run with -v to get a pass/fail line per property (and -s for the measured
margins). The two trained-pipeline fixtures dominate the runtime; everything
together needs a few minutes on one core.

 1. analytic reward-network gradients agree with finite differences
 2. value iteration reproduces closed-form solutions
 3. DP visitation matches Monte Carlo rollouts
 4. policy rollouts at a junction match exact path enumeration
 5. training on single-trail worlds recovers the reward (held-out NLL)
 6. the full method beats every baseline on the benchmark table
 7. forecasts at a junction are speed-conditioned
 8. EKF tracks straight motion; the random policy scores exactly ln 4
 9. the whole pipeline is bitwise deterministic
"""
import json
import math
import time

import numpy as np
import pytest

from conftest import enumerate_trajectory_distribution, load_script
from meirl.cli import forecast, main as cli
from meirl.mdp import (GridWorld, cells_to_xy, compute_svf, sample_trajectories,
                       state_distribution, uniform_policy, value_iteration, ACTION_DELTAS)
from meirl.metrics import hausdorff, nll, terminal_entropy
from meirl.reward_net import backward, build_net, forward, load_net
from meirl.synthetic import (DEMO_BETA, Demonstration, Scene, generate_world,
                             ground_truth_reward, trail_mask)
from meirl.baselines import ekf_forecast_cells
from meirl.kinematics import kinematic_context


def run(*argv):
    assert cli([str(a) for a in argv]) == 0


# the speed experiment's straight approach, shared so gate 7 scores its scenes
straight_past = load_script("speed_entropy_experiment").straight_past


def point_scene(world, start, heading, speed):
    """The scene of a straight approach at `speed` that ends in `start`."""
    return Scene(world, straight_past(start, heading, speed, world.resolution), start)


@pytest.fixture(scope="module")
def trail_run(tmp_path_factory):
    """200 single-trail worlds, 300 training iterations, held-out eval."""
    root = tmp_path_factory.mktemp("trail")
    ds = root / "dataset"
    run("generate", "--out", ds, "--demos", 200, "--rows", 16, "--cols", 16,
        "--split", 0.8, "--seed", 7, "--layouts", "straight,curve")
    t0 = time.perf_counter()
    run("train", "--dataset", ds, "--out", root / "irl",
        "--iterations", 300, "--batch-size", 16, "--seed", 0)
    train_seconds = time.perf_counter() - t0
    run("eval", "--dataset", ds, "--out", root / "eval",
        "--checkpoint", root / "irl" / "checkpoint.ckpt",
        "--methods", "ours", "--samples", 50)
    return {"root": root, "train_seconds": train_seconds}


@pytest.fixture(scope="module")
def benchmark_run(tmp_path_factory):
    """Speed-conditioned mixed-layout benchmark with every method."""
    root = tmp_path_factory.mktemp("benchmark")
    ds = root / "dataset"
    run("generate", "--out", ds, "--demos", 240, "--rows", 16, "--cols", 16,
        "--split", 0.75, "--seed", 11, "--layouts", "straight,curve,tee")
    run("train", "--dataset", ds, "--out", root / "ours",
        "--iterations", 300, "--batch-size", 16, "--seed", 0)
    run("train", "--dataset", ds, "--out", root / "nokin",
        "--method", "irl_nokin", "--iterations", 300, "--batch-size", 16,
        "--seed", 0)
    run("train", "--dataset", ds, "--out", root / "bc",
        "--method", "bc", "--iterations", 200)
    run("eval", "--dataset", ds, "--out", root / "eval",
        "--checkpoint", root / "ours" / "checkpoint.ckpt",
        "--checkpoint-nokin", root / "nokin" / "checkpoint.ckpt",
        "--checkpoint-bc", root / "bc" / "checkpoint.ckpt",
        "--samples", 200)
    table = json.loads((root / "eval" / "table.json").read_text())
    return {"root": root,
            "rows": {m["method"]: m for m in table["methods"]}}


def test_1_gradient_exactness_end_to_end():
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(77))
    world = GridWorld(rows=12, cols=12, resolution=1.0,
                      env=rng.random((5, 12, 12)))
    scene = point_scene(world, (6, 5), (0, 1), 6.0)
    net = build_net("two_stage", seed=5)
    weights = rng.normal(size=(12, 12))

    def loss():
        return float((forward(net, scene)[0] * weights).sum())

    _, acts = forward(net, scene)
    grads = backward(net, acts, weights)
    params = net.parameters()
    h = 1e-4

    direction = {k: rng.normal(size=v.shape) for k, v in params.items()}
    norm = math.sqrt(sum(float((d ** 2).sum()) for d in direction.values()))
    analytic = sum(float((grads[k] * direction[k]).sum()) for k in params) / norm
    for k, v in params.items():
        v += (h / norm) * direction[k]
    up = loss()
    for k, v in params.items():
        v -= (2 * h / norm) * direction[k]
    down = loss()
    for k, v in params.items():
        v += (h / norm) * direction[k]
    rel_dir = abs((up - down) / (2 * h) - analytic) / abs(analytic)

    # every layer also gets a few exact per-parameter probes
    ref = max(float(np.abs(g).max()) for g in grads.values())
    rel_param = 0.0
    for k, v in params.items():
        flat = v.reshape(-1)
        for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
            old = flat[i]
            flat[i] = old + h
            up = loss()
            flat[i] = old - h
            down = loss()
            flat[i] = old
            fd = (up - down) / (2 * h)
            g = float(grads[k].reshape(-1)[i])
            rel_param = max(rel_param, abs(fd - g) / max(abs(g), 1e-3 * ref))
    elapsed = time.perf_counter() - t0

    assert rel_dir < 1e-5
    assert rel_param < 1e-5
    assert elapsed < 60.0
    print(f"\n[1] gradient exactness: PASS  directional {rel_dir:.2e}, "
          f"per-parameter {rel_param:.2e}, {elapsed:.1f}s")


def test_2_planner_closed_forms():
    t0 = time.perf_counter()
    uniform = value_iteration([np.full((6, 7), -1.0)], gamma=0.9)[0]
    err_uniform = float(np.abs(uniform.value - (-10.0)).max())
    assert err_uniform < 1e-12

    two_cell = value_iteration([np.array([[0.0, 1.0]])], gamma=0.5)[0]
    err_two = float(np.abs(two_cell.value - np.array([[1.0, 2.0]])).max())
    assert err_two < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\n[2] planner closed forms: PASS  uniform err {err_uniform:.1e}, "
          f"two-cell err {err_two:.1e}, {elapsed:.2f}s")


def test_3_dp_visitation_matches_monte_carlo():
    t0 = time.perf_counter()
    horizon, n = 6, 200_000
    worst = 0.0
    for k in range(20):
        rng = np.random.default_rng(np.random.SeedSequence(300 + k))
        reward = rng.normal(size=(5, 5))
        policy = value_iteration([3.0 * reward], gamma=0.9)[0]
        start = tuple(rng.integers(0, 5, size=2))
        dp = compute_svf([policy], [start], [horizon])[0]
        rolls = sample_trajectories(policy, start, horizon, n, rng)
        counts = np.bincount(rolls.ravel(), minlength=25).reshape(5, 5)
        worst = max(worst, float(np.abs(counts / n - dp).sum()))
    elapsed = time.perf_counter() - t0
    assert worst < 0.02
    assert elapsed < 120.0
    print(f"\n[3] DP vs Monte Carlo visitation: PASS  worst L1 {worst:.4f} "
          f"over 20 instances, {elapsed:.1f}s")


def test_4_branch_frequencies_match_enumeration():
    # a tee with three equal six-cell arms, approached slowly up the stem,
    # so the expert's exact path distribution is in reach of enumeration
    rows, cols, junction = 13, 17, (3, 8)
    env = np.empty((5, rows, cols))
    env[0] = 0.4
    env[1] = 0.25
    env[2:] = 0.5
    arms = ([(3, c) for c in range(2, 15)] + [(r, 8) for r in range(4, 10)])
    for r, c in arms:
        env[1, r, c] = 0.01
    world = GridWorld(rows=rows, cols=cols, resolution=1.0, env=env)

    context = kinematic_context(straight_past(junction, (-1, 0), 2.0, 1.0))
    reward = ground_truth_reward(world, junction, context)

    n_actions = 6
    # the expert plans on DEMO_BETA times the ground truth, so the
    # enumeration gets the same scaled map
    exact = enumerate_trajectory_distribution(DEMO_BETA * reward, junction,
                                              n_actions)
    exact_marginal = np.zeros(4)
    for path, p in exact.items():
        exact_marginal[path[0]] += p

    policy = value_iteration([DEMO_BETA * reward], gamma=0.95)[0]
    rng = np.random.default_rng(np.random.SeedSequence(2))
    futures = sample_trajectories(policy, junction, n_actions + 1, 1000, rng)
    first = np.stack(np.divmod(futures[:, 1], cols), axis=1) - junction
    freq = np.array([np.mean((first[:, 0] == d[0]) & (first[:, 1] == d[1]))
                     for d in ACTION_DELTAS])
    gap = float(np.abs(freq - exact_marginal).max())
    assert gap <= 0.03
    print(f"\n[4] sampled branches vs enumeration: PASS  max deviation "
          f"{gap:.4f} over 1000 rollouts")


def test_5_reward_recovery_on_single_trail_set(trail_run):
    report = (trail_run["root"] / "irl" / "report.csv").read_text().splitlines()
    first = report[1].split(",")
    last = report[-1].split(",")
    assert first[0] == "1" and last[0] == "300"
    svf_first, svf_last = float(first[4]), float(last[4])
    drop = 1.0 - svf_last / svf_first

    table = json.loads((trail_run["root"] / "eval" / "table.json").read_text())
    held_out = next(m for m in table["methods"] if m["method"] == "ours")["nll"]

    assert held_out <= 1.0
    assert drop >= 0.5
    assert trail_run["train_seconds"] < 600.0
    print(f"\n[5] reward recovery: PASS  held-out NLL {held_out:.4f} "
          f"(uniform bound {math.log(4):.4f}), visitation gap down "
          f"{100 * drop:.0f}%, trained in {trail_run['train_seconds']:.0f}s")


def test_6_benchmark_table_ordering(benchmark_run):
    rows = benchmark_run["rows"]
    ours = rows["ours"]
    assert ours["nll"] < rows["random"]["nll"]
    assert ours["nll"] < rows["irl_nokin"]["nll"]
    for other in ("ekf", "bc", "random", "irl_nokin"):
        assert ours["hd"] < rows[other]["hd"]
    print("\n[6] benchmark ordering: PASS  "
          f"NLL ours {ours['nll']:.3f} < nokin {rows['irl_nokin']['nll']:.3f} "
          f"< random {rows['random']['nll']:.3f}; HD ours {ours['hd']:.2f} < "
          + ", ".join(f"{m} {rows[m]['hd']:.2f}"
                      for m in ("bc", "irl_nokin", "random", "ekf")))


def test_7_speed_conditioned_junction_forecast(benchmark_run):
    net = load_net(benchmark_run["root"] / "ours" / "checkpoint.ckpt", "two_stage")[0]
    # this seed yields a tee with its junction at (9, 8), bar arms left and
    # right along row 9 and the stem rising from the junction
    world = generate_world(seed=0, rows=16, cols=16, layout="tee")
    start, heading, horizon = (9, 5), (0, 1), 15
    straight_arm = [(9, c) for c in range(9, 14)]
    assert trail_mask(world)[tuple(zip(*straight_arm))].all()

    # planned as eval and predict plan, and scored at the forecast's last cell,
    # where eval and predict take the terminal entropy
    speeds = {"slow": 2.0, "fast": 8.0}
    policies, _ = forecast(net, [point_scene(world, start, heading, speed)
                                 for speed in speeds.values()])
    dists = state_distribution(policies, [start] * len(speeds), [horizon] * len(speeds))
    results = {}
    for label, dist in zip(speeds, dists):
        straight_mass = float(sum(dist[rc] for rc in straight_arm))
        results[label] = (terminal_entropy(dist), straight_mass)

    gap = results["slow"][0] - results["fast"][0]
    fast_straight = results["fast"][1]
    assert gap >= 0.2
    assert fast_straight >= 0.6
    print(f"\n[7] speed-conditioned forecast: PASS  entropy gap {gap:.3f} "
          f"nats, fast straight-branch mass {fast_straight:.3f}")


def test_8_baseline_sanity():
    rng = np.random.default_rng(4)
    env = np.full((5, 8, 26), 0.5) + rng.normal(scale=0.01, size=(5, 8, 26))
    world = GridWorld(rows=8, cols=26, resolution=1.0, env=env.clip(0.0, 1.0))
    future = np.array([(4, 2 + k) for k in range(21)])  # 20 prediction steps
    demo = Demonstration(world=world, past=straight_past((4, 2), (0, 1), 3.0, 1.0),
                         future=future, expert_speed=3.0, seed=0,
                         tag="straight")

    (cells,) = ekf_forecast_cells([demo])
    hd_cells = hausdorff(cells_to_xy(cells, 1.0), cells_to_xy(future, 1.0))
    assert hd_cells <= 1.0 + 1e-9

    random_nll = nll(uniform_policy(world.rows, world.cols), demo)
    assert random_nll == math.log(4.0)
    print(f"\n[8] baseline sanity: PASS  EKF straight-track HD {hd_cells:.3f} "
          f"cells over 20 steps, random NLL == ln 4 exactly")


def test_9_pipeline_determinism(tmp_path):
    outputs = []
    for rep in ("a", "b"):
        root = tmp_path / rep
        run("generate", "--out", root / "ds", "--demos", 8, "--rows", 16,
            "--cols", 16, "--split", 0.75, "--seed", 3,
            "--horizon-min", 15, "--horizon-max", 16)
        run("train", "--dataset", root / "ds", "--out", root / "irl",
            "--iterations", 5, "--batch-size", 2, "--seed", 1)
        run("eval", "--dataset", root / "ds", "--out", root / "eval",
            "--checkpoint", root / "irl" / "checkpoint.ckpt",
            "--methods", "ours,random,ekf", "--samples", 40)
        # resolved_config.json embeds the absolute output path, so it can
        # never match between the two replicate directories.
        record = {}
        for name in sorted((root / "ds").rglob("*")):
            if name.is_file() and name.name != "resolved_config.json":
                record[f"ds/{name.relative_to(root / 'ds')}"] = name.read_bytes()
        record["checkpoint"] = (root / "irl" / "checkpoint.ckpt").read_bytes()
        record["report"] = (root / "irl" / "report.csv").read_bytes()
        record["table"] = (root / "eval" / "table.csv").read_bytes()
        outputs.append(record)

    assert outputs[0].keys() == outputs[1].keys()
    mismatched = [k for k in outputs[0] if outputs[0][k] != outputs[1][k]]
    assert mismatched == []
    print(f"\n[9] determinism: PASS  {len(outputs[0])} files (dataset records, "
          "checkpoint, report, table) bitwise identical across reruns")
