"""World construction geometry, ground-truth reward shape, demo sampling, balancing."""

import dataclasses
import hashlib
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOOL_MASKS
from meirl import synthetic
from meirl.dataset import GenerateConfig, generate_dataset, load_demo, save_demo
from meirl.errors import ConfigError
from meirl.kinematics import KinematicContext, PastTrack, extract_velocity
from meirl.mdp import ACTION_DELTAS, GridWorld, actions_from_cells, cells_to_xy
from meirl.synthetic import (MARGIN, VAR_THRESHOLD, Demonstration, Scene,
                             augment_rotations, balance_dataset, bend_cells,
                             classify_tag, generate_demonstration, generate_world,
                             ground_truth_reward, junction_cells, trail_mask)

CTX_SLOW = KinematicContext(dx=0.2, dy=0.0, kappa=0.0)
CTX_FAST = KinematicContext(dx=0.8, dy=0.0, kappa=0.0)


def world_for(layout, seed=0, rows=16, cols=16, **kw):
    return generate_world(seed=seed, rows=rows, cols=cols, layout=layout, **kw)


def world_from_mask(mask, resolution=1.0):
    mask = np.asarray(mask, dtype=bool)
    env = np.empty((5, *mask.shape))
    env[0] = np.where(mask, 0.05, 0.40)
    env[1] = np.where(mask, 0.01, 0.25)
    env[2:] = np.where(mask, 0.40, 0.25)
    return GridWorld(rows=mask.shape[0], cols=mask.shape[1],
                     resolution=resolution, env=env)


def straight_mask(rows=16, cols=16, row=8):
    mask = np.zeros((rows, cols), dtype=bool)
    mask[row, MARGIN:cols - MARGIN] = True
    return mask


# ---------------------------------------------------------------------------
# worlds

def test_same_seed_identical_worlds():
    a = world_for("random", seed=5)
    b = world_for("random", seed=5)
    assert np.array_equal(a.env, b.env)
    assert not np.array_equal(a.env, world_for("random", seed=6).env)


def test_straight_layout_is_simple_path():
    for seed in range(5):
        mask = trail_mask(world_for("straight", seed=seed))
        counts = np.array([np.count_nonzero(mask[max(r - 1, 0):r + 2, c]) - 1
                           + np.count_nonzero(mask[r, max(c - 1, 0):c + 2]) - 1
                           for r, c in np.argwhere(mask)])
        assert sorted(counts)[:2] == [1, 1]  # two endpoints
        assert all(c <= 2 for c in counts)
        assert junction_cells(mask) == []


def test_variance_band_separates_trail_over_seeds():
    on_means, off_means = [], []
    for seed in range(50):
        world = world_for("random", seed=seed)
        mask = trail_mask(world)
        var = world.env[1]
        assert var[mask].max() < VAR_THRESHOLD
        assert var[~mask].min() > VAR_THRESHOLD
        on_means.append(var[mask].mean())
        off_means.append(var[~mask].mean())
    assert np.mean(on_means) < np.mean(off_means)


def test_channels_in_unit_range():
    world = world_for("cross", seed=3)
    assert world.env.shape[0] == 5
    assert world.env.min() >= 0.0 and world.env.max() <= 1.0


def test_curve_has_bend_but_no_junction():
    mask = trail_mask(world_for("curve", seed=1))
    assert junction_cells(mask) == []
    assert len(bend_cells(mask)) >= 1


def test_tee_and_cross_junctions():
    tee = trail_mask(world_for("tee", seed=2))
    assert len(junction_cells(tee)) == 1
    cross = trail_mask(world_for("cross", seed=2))
    assert len(junction_cells(cross)) == 1


def connected(mask) -> bool:
    """Whether the mask's cells form one nonempty 4-connected set."""
    cells = {tuple(rc) for rc in np.argwhere(mask).tolist()}
    stack = list(cells)[:1]
    seen = set(stack)
    while stack:
        r, c = stack.pop()
        for dr, dc in ACTION_DELTAS:
            if (r + dr, c + dc) in cells - seen:
                seen.add((r + dr, c + dc))
                stack.append((r + dr, c + dc))
    return bool(cells) and seen == cells


def test_connected_flags_split_and_empty_masks():
    mask = straight_mask()
    assert connected(mask)
    mask[8, 7] = False
    assert not connected(mask)
    assert not connected(np.zeros((4, 4), dtype=bool))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(synthetic.LAYOUTS), st.sampled_from((1, 3, 5)),
       st.integers(0, 2**31 - 2), st.data())
def test_every_generated_trail_is_connected(layout, width, seed, data):
    smallest = max(8, 2 * MARGIN + width + 1)  # GridWorld needs 8x8
    rows, cols = (data.draw(st.integers(smallest, smallest + 20)) for _ in range(2))
    assert connected(trail_mask(world_for(layout, seed=seed, rows=rows, cols=cols,
                                          trail_width=width)))


def trail_directions(mask, r, c):
    """Reference: the moves from (r, c) onto trail cells, by a bounds-checked loop."""
    rows, cols = mask.shape
    return [(dr, dc) for dr, dc in ACTION_DELTAS
            if 0 <= r + dr < rows and 0 <= c + dc < cols and mask[r + dr, c + dc]]


def reference_junctions(mask):
    return [(r, c) for r, c in itertools.product(*map(range, mask.shape))
            if mask[r, c] and len(trail_directions(mask, r, c)) >= 3]


def reference_bends(mask):
    out = []
    for r, c in itertools.product(*map(range, mask.shape)):
        dirs = trail_directions(mask, r, c)
        if mask[r, c] and len(dirs) == 2 and dirs[0][0] != -dirs[1][0]:
            out.append((r, c))
    return out


@settings(max_examples=80, deadline=None)
@given(BOOL_MASKS)
def test_bends_and_junctions_equal_reference_loops_on_random_masks(mask):
    assert bend_cells(mask) == reference_bends(mask)
    assert junction_cells(mask) == reference_junctions(mask)


@pytest.mark.parametrize("layout", ["straight", "curve", "tee", "cross"])
@pytest.mark.parametrize("width", [1, 3])
def test_bends_and_junctions_equal_reference_loops_on_worlds(layout, width):
    for seed in range(6):
        mask = trail_mask(world_for(layout, seed=seed, rows=20, cols=12, trail_width=width))
        assert bend_cells(mask) == reference_bends(mask)
        assert junction_cells(mask) == reference_junctions(mask)


# sha256 of the packed trail masks of every world below: a moved cell, or a
# change in the order a layout builder draws from the world's generator,
# changes it
PINNED_TRAIL_DIGEST = "e46b81a9ae518fdd08391e8ad95025ff3574970816a76cdb66b2660636413522"


def test_trail_geometry_is_pinned():
    seeds = range(40)
    # a straight's or a tee's orientation is the first draw of the world's
    # generator, so the seeds cover both
    assert {int(np.random.default_rng(np.random.SeedSequence(seed)).integers(2))
            for seed in seeds} == {0, 1}
    digest = hashlib.sha256()
    for layout, (rows, cols), width, seed in itertools.product(
            ("straight", "curve", "tee", "cross"), ((16, 16), (20, 12), (12, 20)),
            (1, 3), seeds):
        mask = trail_mask(world_for(layout, seed=seed, rows=rows, cols=cols,
                                    trail_width=width))
        digest.update(np.packbits(mask).tobytes())
    assert digest.hexdigest() == PINNED_TRAIL_DIGEST


# sha256 of every world's channels as little-endian float64, over the worlds
# of the trail digest: a slip in the terrain draws (heights, variances, RGB
# noise) changes it
PINNED_TERRAIN_DIGEST = "cbbe68e701893872d5fb77bcbcea64ac3612fda13f856b970392a21f77dc3d10"


def test_terrain_is_pinned():
    digest = hashlib.sha256()
    for layout, (rows, cols), width, seed in itertools.product(
            ("straight", "curve", "tee", "cross"), ((16, 16), (20, 12), (12, 20)),
            (1, 3), range(40)):
        world = world_for(layout, seed=seed, rows=rows, cols=cols, trail_width=width)
        digest.update(np.ascontiguousarray(world.env, dtype="<f8").tobytes())
    assert digest.hexdigest() == PINNED_TERRAIN_DIGEST


# sha256 of the futures of every demo of the datasets below: a sampled action
# that flips, through the planner, the expert's reward or its sampler,
# changes it
PINNED_EXPERT_DIGEST = "e45554103ca6340ed903c55b37991952986a38c1e47a0a6958c5d0dd8fb80e08"


def test_expert_futures_are_pinned():
    digest = hashlib.sha256()
    for rows, cols, n_demos, seed, width in ((16, 16, 48, 11, 1), (20, 28, 16, 5, 1),
                                             (24, 24, 16, 3, 3)):
        train, test = generate_dataset(GenerateConfig(
            n_demos=n_demos, split=0.75, seed=seed, rows=rows, cols=cols, trail_width=width))
        for demo in train + test:
            digest.update(np.ascontiguousarray(demo.future, dtype="<i8").tobytes())
            digest.update(b"|")
    assert digest.hexdigest() == PINNED_EXPERT_DIGEST


def test_unsatisfiable_spec():
    with pytest.raises(ConfigError, match="a trail of width 5 does not fit a 8x8 grid"):
        generate_world(rows=8, cols=8, trail_width=5)
    with pytest.raises(ConfigError, match="unknown layout 'spiral'"):
        generate_world(layout="spiral")
    with pytest.raises(ConfigError, match="trail width must be odd"):
        generate_world(trail_width=2)


# ---------------------------------------------------------------------------
# ground-truth reward

def test_slow_reward_is_two_valued():
    world = world_from_mask(straight_mask())
    r = ground_truth_reward(world, (8, 5), CTX_SLOW)
    assert set(np.unique(r)) == {-2.0, 0.0}


def test_fast_reward_ramps_along_heading():
    world = world_from_mask(straight_mask())
    r = ground_truth_reward(world, (8, 5), CTX_FAST)
    for k in range(1, 16 - MARGIN - 5):
        assert r[8, 5 + k] == pytest.approx(0.25 * k)
    assert r[8, 4] == 0.0          # behind the vehicle: plain trail
    assert r[8, 5] == 0.0          # own cell carries no bonus
    assert r[7, 8] == -2.0         # off trail untouched by the ray


def test_ramp_stops_at_trail_end():
    world = world_from_mask(straight_mask())
    r = ground_truth_reward(world, (8, 5), CTX_FAST)
    assert r[8, 14] == -2.0        # past the inset trail end


def test_ramp_respects_threshold():
    world = world_from_mask(straight_mask())
    ctx = KinematicContext(dx=0.5, dy=0.0, kappa=0.0)  # exactly at threshold: no ramp
    r = ground_truth_reward(world, (8, 5), ctx)
    assert set(np.unique(r)) == {-2.0, 0.0}


def test_ramp_follows_vertical_heading():
    mask = np.zeros((16, 16), dtype=bool)
    mask[MARGIN:16 - MARGIN, 8] = True
    world = world_from_mask(mask)
    r = ground_truth_reward(world, (10, 8), KinematicContext(0.0, -0.8, 0.0))
    assert r[9, 8] == pytest.approx(0.25)   # dy < 0 walks toward smaller rows
    assert r[11, 8] == 0.0


# ---------------------------------------------------------------------------
# demonstrations

def test_demo_deterministic():
    world = world_for("straight", seed=11)
    a = generate_demonstration(world, speed=2.0, seed=21)
    b = generate_demonstration(world, speed=2.0, seed=21)
    assert np.array_equal(a.future, b.future)
    assert np.array_equal(a.past.xy, b.past.xy)
    c = generate_demonstration(world, speed=2.0, seed=22)
    assert not (np.array_equal(a.future, c.future) and np.array_equal(a.past.xy, c.past.xy))


def test_high_beta_stays_on_trail(monkeypatch):
    monkeypatch.setattr(synthetic, "DEMO_BETA", 50.0)
    world = world_for("straight", seed=4)
    mask = trail_mask(world)
    demo = generate_demonstration(world, speed=2.0, seed=9)
    assert all(mask[r, c] for r, c in demo.future)


def test_start_off_trail_rejected():
    world = world_from_mask(straight_mask())
    with pytest.raises(ConfigError, match="off the trail"):
        generate_demonstration(world, speed=2.0, seed=0, start=(0, 0))


def isolated_start_mask():
    """The straight trail plus one trail cell with no trail neighbour."""
    mask = straight_mask()
    mask[3, 3] = True
    return mask


@pytest.mark.parametrize("mask, start, message", [
    (np.zeros((16, 16), dtype=bool), None, "world has no usable trail cells to start from"),
    (isolated_start_mask(), (3, 3), "no room to synthesize a past track from (3, 3)")],
    ids=["no_trail", "isolated_start"])
def test_expert_refuses_a_world_it_cannot_start_on(mask, start, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        generate_demonstration(world_from_mask(mask), speed=2.0, seed=0, start=start)


def test_demo_speed_recoverable():
    world = world_from_mask(straight_mask())
    demo = generate_demonstration(world, speed=8.0, seed=3, start=(8, 10),
                                  past_direction=2)  # past walks left, so heading is +x
    dx, dy = extract_velocity(demo.past)
    assert dy == 0.0
    assert abs(dx - 0.8) < 0.1
    demo = generate_demonstration(world, speed=2.0, seed=3, start=(8, 10), past_direction=3)
    dx, dy = extract_velocity(demo.past)
    assert abs(dx - (-0.2)) < 0.1


def test_demo_keeps_the_actions_of_its_future():
    world = world_for("curve", seed=8)
    demo = generate_demonstration(world, speed=4.0, seed=5)
    for d in [demo, dataclasses.replace(demo, seed=9)] + augment_rotations(demo):
        assert np.array_equal(d.actions, actions_from_cells(d.future, world.rows, world.cols))
        steps = np.array([ACTION_DELTAS[a] for a in d.actions])
        moved = np.clip(d.future[:-1] + steps, 0, [world.rows - 1, world.cols - 1])
        assert np.array_equal(moved, d.future[1:])
    # each rotation has its own actions, not a copy of the original's
    assert not np.array_equal(augment_rotations(demo)[1].actions, demo.actions)


def test_past_ends_at_start_cell_center():
    world = world_for("curve", seed=8)
    demo = generate_demonstration(world, speed=4.0, seed=5)
    assert np.allclose(demo.past.xy[-1], cells_to_xy(demo.future[:1], world.resolution)[0])


def test_horizon_override_and_range():
    world = world_for("straight", seed=4)
    demo = generate_demonstration(world, speed=2.0, seed=1, horizon=40)
    assert demo.horizon == 40
    with pytest.raises(ConfigError):
        generate_demonstration(world, speed=2.0, seed=1, horizon=41)
    demo = generate_demonstration(world, speed=2.0, seed=1)
    assert 15 <= demo.horizon <= 25


def test_tags_from_geometry():
    straight = world_for("straight", seed=4)
    assert generate_demonstration(straight, speed=2.0, seed=2).tag == "straight"
    tee = world_for("tee", seed=2)
    junction = junction_cells(trail_mask(tee))[0]
    assert generate_demonstration(tee, speed=2.0, seed=2, start=junction).tag == "intersection"
    curve = world_for("curve", seed=1)
    bend = bend_cells(trail_mask(curve))[0]
    demo = generate_demonstration(curve, speed=2.0, seed=2, start=bend)
    assert demo.tag == "curve"


def test_demo_validation_catches_disjoint_past():
    world = world_from_mask(straight_mask())
    demo = generate_demonstration(world, speed=2.0, seed=0, start=(8, 6))
    bad_past = demo.past
    bad_past = type(bad_past)(t=bad_past.t, xy=bad_past.xy + 5.0)
    with pytest.raises(ConfigError, match="past track"):
        Demonstration(world=world, past=bad_past, future=demo.future,
                      expert_speed=2.0, seed=0, tag=demo.tag)
    with pytest.raises(ConfigError, match="past track does not end at the start cell"):
        Scene(world, bad_past, demo.start)


@pytest.mark.parametrize("cells", [0, 1])
def test_demo_refuses_a_future_without_a_transition(cells):
    world = world_from_mask(straight_mask())
    demo = generate_demonstration(world, speed=2.0, seed=0, start=(8, 6))
    with pytest.raises(ConfigError, match=f"^demo future needs at least two cells, got {cells}$"):
        Demonstration(world=world, past=demo.past, future=demo.future[:cells],
                      expert_speed=2.0, seed=0, tag=demo.tag)


def test_demo_refuses_an_unknown_tag():
    world = world_from_mask(straight_mask())
    demo = generate_demonstration(world, speed=2.0, seed=0, start=(8, 6))
    with pytest.raises(ConfigError, match="^unknown scenario tag 'zigzag'$"):
        dataclasses.replace(demo, tag="zigzag")


def test_a_demo_is_frozen_so_its_actions_follow_its_future():
    world = world_from_mask(straight_mask())
    demo = generate_demonstration(world, speed=2.0, seed=0, start=(8, 6))
    with pytest.raises(dataclasses.FrozenInstanceError):
        demo.future = demo.future[:1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        demo.actions = demo.actions[:1]
    # replace() builds a new demo through every check
    moved = dataclasses.replace(demo, future=demo.future[:2])
    assert np.array_equal(moved.actions, demo.actions[:1])
    with pytest.raises(ConfigError, match="at least two cells"):
        dataclasses.replace(demo, future=demo.future[:1])


def _demo_arrays(demo):
    return {"future": demo.future, "actions": demo.actions, "env": demo.world.env,
            "past.t": demo.past.t, "past.xy": demo.past.xy}


def test_a_demos_arrays_refuse_writes_in_place(tmp_path):
    # a frozen demo whose future could still be overwritten in place would
    # leave its actions describing another path
    world = world_from_mask(straight_mask())
    demo = generate_demonstration(world, speed=2.0, seed=0, start=(8, 6))
    save_demo(tmp_path / "demo.bin", demo)
    loaded = load_demo(tmp_path / "demo.bin")
    scene = Scene(demo.world, demo.past, demo.start)
    for held in (demo, loaded, augment_rotations(demo)[1]):
        before = {name: arr.copy() for name, arr in _demo_arrays(held).items()}
        for name, arr in _demo_arrays(held).items():
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[-1]
            with pytest.raises(ValueError, match="read-only"):
                arr += 1
            assert np.array_equal(arr, before[name])
    for arr in (scene.world.env, scene.past.t, scene.past.xy):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
    # nor can an array be swapped for one that skipped the checks
    for held, name in ((demo.world, "env"), (demo.world, "rows"), (demo.past, "t"),
                       (demo.past, "xy")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(held, name, None)


def test_the_callers_arrays_stay_writable_and_apart():
    env = np.full((5, 8, 8), 0.5)
    t, xy = np.array([0.0, 0.1, 0.2]), np.array([[0.5, 4.5], [1.5, 4.5], [2.5, 4.5]])
    future = np.array([[4, 2], [4, 3], [4, 4]])
    world = GridWorld(rows=8, cols=8, resolution=1.0, env=env)
    demo = Demonstration(world=world, past=PastTrack(t=t, xy=xy), future=future,
                         expert_speed=10.0, seed=0, tag="straight")
    for given_arr, held in ((env, world.env), (t, demo.past.t), (xy, demo.past.xy),
                            (future, demo.future)):
        assert given_arr.flags.writeable and not held.flags.writeable
        assert not np.shares_memory(given_arr, held)
    future[1] = future[0]  # the caller's edit does not reach the demo
    assert demo.future[1].tolist() == [4, 3] and demo.actions.tolist() == [3, 3]


def test_a_demo_is_a_scene_at_its_first_cell():
    world = world_from_mask(straight_mask())
    demo = generate_demonstration(world, speed=2.0, seed=0, start=(8, 6))
    assert demo.start == (8, 6) and all(type(v) is int for v in demo.start)
    scene = Scene(demo.world, demo.past, demo.future[0])  # an int64 pair
    assert scene.start == demo.start and all(type(v) is int for v in scene.start)


# ---------------------------------------------------------------------------
# augmentation

def test_rotations_identity_and_group():
    world = world_for("curve", seed=3)
    demo = generate_demonstration(world, speed=2.0, seed=6)
    rots = augment_rotations(demo)
    assert len(rots) == 4
    assert rots[0] is demo
    again = augment_rotations(rots[1])
    assert np.array_equal(again[1].world.env, rots[2].world.env)
    assert np.array_equal(again[1].future, rots[2].future)


def test_rotation_consistency():
    world = world_for("tee", seed=9)
    mask = trail_mask(world)
    demo = generate_demonstration(world, speed=2.0, seed=7)
    rot = augment_rotations(demo)[1]
    n = world.rows
    assert np.array_equal(trail_mask(rot.world), np.rot90(mask, k=-1))
    expect = np.stack([demo.future[:, 1], n - 1 - demo.future[:, 0]], axis=1)
    assert np.array_equal(rot.future, expect)
    assert rot.tag == demo.tag
    assert np.array_equal(rot.past.t, demo.past.t)


def test_rotation_needs_square_grid():
    world = world_for("straight", seed=4, rows=16, cols=20)
    demo = generate_demonstration(world, speed=2.0, seed=1)
    with pytest.raises(ConfigError, match="square"):
        augment_rotations(demo)


# ---------------------------------------------------------------------------
# balancing

def _tagged_pool():
    straight = world_for("straight", seed=4)
    tee = world_for("tee", seed=2)
    curve = world_for("curve", seed=1)
    junction = junction_cells(trail_mask(tee))[0]
    bend = bend_cells(trail_mask(curve))[0]
    pool = []
    for s in range(4):
        pool.append(generate_demonstration(straight, speed=2.0, seed=100 + s))
    for s in range(2):
        pool.append(generate_demonstration(tee, speed=2.0, seed=200 + s, start=junction))
    pool.append(generate_demonstration(curve, speed=2.0, seed=300, start=bend))
    assert [d.tag for d in pool] == ["straight"] * 4 + ["intersection"] * 2 + ["curve"]
    return pool


def test_balance_to_equal_thirds():
    pool = _tagged_pool()
    out = balance_dataset(pool, {"straight": 1 / 3, "curve": 1 / 3, "intersection": 1 / 3})
    assert len(out) == len(pool)
    counts = {tag: sum(d.tag == tag for d in out) for tag in ("straight", "curve", "intersection")}
    assert all(abs(c - len(pool) / 3) <= 1 for c in counts.values())


def test_balance_observed_fractions_is_identity():
    pool = _tagged_pool()
    n = len(pool)
    targets = {"straight": 4 / n, "intersection": 2 / n, "curve": 1 / n}
    out = balance_dataset(pool, targets)
    assert sorted(id(d) for d in out) == sorted(id(d) for d in pool)


def test_balance_single_class():
    pool = _tagged_pool()
    out = balance_dataset(pool, {"curve": 1.0})
    assert len(out) == len(pool)
    assert all(d.tag == "curve" for d in out)


def test_balance_errors():
    pool = [d for d in _tagged_pool() if d.tag != "curve"]
    with pytest.raises(ConfigError, match="curve"):
        balance_dataset(pool, {"straight": 0.5, "curve": 0.5})
    with pytest.raises(ConfigError, match="sum"):
        balance_dataset(pool, {"straight": 0.5, "intersection": 0.2})
    with pytest.raises(ConfigError, match="unknown"):
        balance_dataset(pool, {"zigzag": 1.0})
    with pytest.raises(ConfigError):
        balance_dataset([], {"straight": 1.0})


def test_classify_tag_priority():
    mask = trail_mask(world_for("tee", seed=2))
    junction = junction_cells(mask)[0]
    assert classify_tag(mask, np.array([junction])) == "intersection"
    straight_cell = next(tuple(rc) for rc in np.argwhere(mask)
                         if tuple(rc) not in set(junction_cells(mask)))
    assert classify_tag(mask, np.array([straight_cell])) == "straight"


@pytest.mark.parametrize("layout", ["straight", "curve", "tee", "cross"])
def test_width_one_tags_read_the_raw_mask(layout):
    for seed in range(4):
        mask = trail_mask(world_for(layout, seed=seed))
        junctions, bends = set(junction_cells(mask)), set(bend_cells(mask))
        for cell in map(tuple, np.argwhere(mask)):
            want = ("intersection" if cell in junctions
                    else "curve" if cell in bends else "straight")
            assert classify_tag(mask, np.array([cell])) == want


def test_wide_straight_trail_is_tagged_straight():
    for seed in range(6):
        mask = trail_mask(world_for("straight", seed=seed, trail_width=3))
        assert junction_cells(mask)  # the raw mask would call it a junction
        assert classify_tag(mask, np.argwhere(mask)) == "straight"


@pytest.mark.parametrize("layout, tag, find", [("tee", "intersection", junction_cells),
                                               ("curve", "curve", bend_cells)])
def test_wide_trail_tags_its_feature_and_only_there(layout, tag, find):
    # the width-1 world of the same seed is the wide trail's core
    for seed in range(4):
        (feature,) = find(trail_mask(world_for(layout, seed=seed)))
        mask = trail_mask(world_for(layout, seed=seed, trail_width=3))
        # a future that passes the feature one cell off the core
        r, c = feature
        assert classify_tag(mask, np.array([[r - 1, c - 1], [r - 1, c], [r - 1, c + 1]])) == tag
        far = [tuple(rc) for rc in np.argwhere(mask)
               if max(abs(rc[0] - r), abs(rc[1] - c)) > 1]
        assert classify_tag(mask, np.array(far)) == "straight"
