import numpy as np
import pytest

from objectslam import pipeline as pl
from objectslam import simworld as sw
from objectslam.association import DAConfig
from objectslam.evaluation import ape
from objectslam.geometry import Pose3, compose, inverse, local
from objectslam.segmentation import ObjectDetection


def slam_config(strategy="ml", **overrides):
    cfg = pl.SlamConfig(da=DAConfig(strategy=strategy), **overrides)
    return cfg


def sim(seed=0, multiplier=1.0, **world_overrides):
    base = dict(object_count=6, class_count=4, embedding_dim=16, loops=2,
                keyframes_per_loop=80, path_length=8.0)
    base.update(world_overrides)
    cfg = sw.WorldConfig(**base)
    noise = sw.NoiseModel(multiplier=multiplier)
    return sw.simulate(cfg, noise, seed)


def test_first_keyframe_prior_only():
    system = pl.SlamSystem(slam_config())
    decisions = system.add_keyframe(None, [])
    assert decisions == []
    assert len(system.graph.poses) == 1
    assert len(system.graph.landmarks) == 0
    assert len(system.graph.factors) == 1


def test_new_landmark_initialized_at_world_point():
    system = pl.SlamSystem(slam_config())
    system.add_keyframe(None, [])
    rel = Pose3(np.array([1, 0, 0, 0.0]), np.array([0.1, 0.0, 0.0]))
    det = ObjectDetection(np.array([1.0, 0.0]), np.array([1.5, 0.3, 0.0]), np.eye(3) * 0.01)
    decisions = system.add_keyframe((rel, np.full(6, 1e-3)), [det])
    assert decisions[0].is_new
    expected = compose(Pose3.identity(), rel).apply(det.point)
    assert np.allclose(system.graph.landmarks[0], expected, atol=1e-9)


def test_revisit_associates_to_existing_landmark():
    system = pl.SlamSystem(slam_config())
    emb = np.array([1.0, 0.0])
    obj = np.array([1.0, 0.0, 0.3])
    det0 = ObjectDetection(emb, obj.copy(), np.eye(3) * 0.0025)
    system.add_keyframe(None, [det0])
    rel = Pose3(np.array([1, 0, 0, 0.0]), np.array([0.05, 0.0, 0.0]))
    pose1 = compose(Pose3.identity(), rel)
    det1 = ObjectDetection(emb, inverse(pose1).apply(obj), np.eye(3) * 0.0025)
    decisions = system.add_keyframe((rel, np.full(6, 1e-3)), [det1])
    assert decisions[0].kind == "single"
    assert decisions[0].best_landmark == 0
    assert system.registry[0].count == 2


def test_propagated_gate_covariance_matches_graph_marginals():
    # Oracle: with no optimize in the run, the gate's joint (pose, landmark)
    # covariance is carried by propagation alone. Every landmark is seen once,
    # so the graph is a tree whose initial estimate is the MAP estimate, and
    # the propagated blocks must equal the graph's own joint marginals.
    system = pl.SlamSystem(slam_config(optimize_every=1000))
    rng = np.random.default_rng(11)
    sigmas = np.array([0.02, 0.01, 0.005, 0.004, 0.006, 0.03])

    def det(embedding, point, var):
        return ObjectDetection(np.asarray(embedding, dtype=float),
                               np.asarray(point, dtype=float), np.eye(3) * var)

    # two new landmarks in one keyframe grow the storage twice in one frame
    system.add_keyframe(None, [det([1, 0, 0], [2.0, 0.5, 0.2], 0.01),
                               det([0, 1, 0], [1.0, -3.0, 0.4], 0.02)])
    for k in range(1, 41):
        rel = Pose3.from_tangent(np.concatenate([rng.normal(0, 0.1, 3),
                                                 [0.3, 0.05, 0.02]]))
        dets = [det([0, 0, 1], [1.5, 1.0, -0.3], 0.015)] if k == 10 else []
        system.add_keyframe((rel, sigmas), dets)
    assert sorted(system.registry) == [0, 1, 2]

    latest = system.frame - 1
    gate = system._snapshot(system.graph.poses[latest]).joint_marginals
    blocks = {"pose": np.s_[:6, :6], "cross": np.s_[:6, 6:], "landmark": np.s_[6:, 6:]}
    for j in system.registry:
        oracle = system.graph.joint_marginals(latest, [j])[j]
        for name, block in blocks.items():
            err = np.linalg.norm(gate[j][block] - oracle[block]) / np.linalg.norm(oracle[block])
            assert err < 1e-9, (j, name, err)


def test_run_slam_odometry_only_composes():
    _, traj, dataset = sim(seed=1)
    result = pl.run_slam(dataset, slam_config(), odometry_only=True)
    pose = Pose3.identity()
    for kf in dataset.keyframes[1:]:
        pose = compose(pose, kf.odom)
    assert np.allclose(result.trajectory[-1][1].translation, pose.translation, atol=1e-12)
    assert result.landmarks == []


@pytest.mark.parametrize("strategy", ["ml", "em", "mm"])
def test_run_slam_beats_odometry(strategy):
    world, traj, dataset = sim(seed=2, multiplier=3.0)
    cfg = slam_config(strategy, optimize_every=20)
    result = pl.run_slam(dataset, cfg)
    odom = pl.run_slam(dataset, cfg, odometry_only=True)
    slam_ape = ape(result.trajectory, traj).mean
    odom_ape = ape(odom.trajectory, traj).mean
    assert slam_ape < odom_ape
    # sparse map: no runaway landmark creation
    assert len(result.landmarks) <= 1.5 * len(world.objects)


def test_landmarks_near_true_objects():
    world, traj, dataset = sim(seed=3, multiplier=2.0)
    cfg = slam_config("ml", optimize_every=20)
    result = pl.run_slam(dataset, cfg)
    positions = world.positions()
    for lm in result.landmarks:
        dist = np.linalg.norm(positions - lm.position, axis=1).min()
        assert dist < 0.25


def test_run_slam_deterministic():
    _, _, dataset = sim(seed=4, multiplier=2.0)
    cfg = slam_config("ml", optimize_every=25)
    r1 = pl.run_slam(dataset, cfg)
    r2 = pl.run_slam(dataset, cfg)
    assert r1.report == r2.report
    for (t1, p1), (t2, p2) in zip(r1.trajectory, r2.trajectory):
        assert np.array_equal(p1.translation, p2.translation)
        assert np.array_equal(p1.rotation, p2.rotation)


def test_decision_log_collected():
    _, _, dataset = sim(seed=6, loops=1, keyframes_per_loop=30)
    cfg = slam_config("ml", optimize_every=10, log_decisions=True)
    result = pl.run_slam(dataset, cfg)
    assert result.decision_log
    record = result.decision_log[0]
    assert "frame" in record and "decisions" in record
    kinds = {d["kind"] for rec in result.decision_log for d in rec["decisions"]}
    assert "new" in kinds and "single" in kinds


def test_map_round_trip(tmp_path):
    _, _, dataset = sim(seed=7, loops=1, keyframes_per_loop=40)
    result = pl.run_slam(dataset, slam_config("ml", optimize_every=10))
    path = tmp_path / "map.jsonl"
    pl.save_map(path, result.landmarks)
    back = pl.load_map(path)
    assert len(back) == len(result.landmarks)
    for a, b in zip(result.landmarks, back):
        assert a.id == b.id and a.count == b.count
        assert np.allclose(a.position, b.position, atol=1e-6)
