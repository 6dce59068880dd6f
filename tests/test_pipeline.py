from collections import Counter

import numpy as np
import pytest

from objectslam import factors as fx
from objectslam import pipeline as pl
from objectslam import simworld as sw
from objectslam.association import NEW_LANDMARK_BETA, DAConfig, Landmark, chi_square_quantile
from objectslam.errors import DataFormatError
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


def graph_counts(system):
    return system.frame, len(system.graph.poses), len(system.graph.landmarks), len(
        system.graph.factors), len(system.registry)


def test_add_keyframe_rejects_bad_odometry_without_mutation():
    system = pl.SlamSystem(slam_config())
    system.add_keyframe(None, [])
    rel = Pose3(np.array([1, 0, 0, 0.0]), np.array([0.1, 0.0, 0.0]))
    before = graph_counts(system)
    gate_cov = system._gate_cov.copy()
    with pytest.raises(DataFormatError):
        system.add_keyframe((rel, np.array([1e-3, np.nan, 1e-3, 1e-3, 1e-3, 1e-3])), [])
    assert graph_counts(system) == before
    assert np.array_equal(system._gate_cov, gate_cov)
    system.add_keyframe((rel, np.full(6, 1e-3)), [])  # the retry succeeds
    assert graph_counts(system) == (2, 2, 0, 2, 0)


def test_add_keyframe_rejects_non_finite_detection_without_mutation():
    system = pl.SlamSystem(slam_config())
    det = ObjectDetection(np.array([1.0, 0.0]), np.array([1.5, 0.3, 0.0]), np.eye(3) * 0.01)
    det.point[1] = np.nan  # bypasses the constructor's check
    with pytest.raises(DataFormatError):
        system.add_keyframe(None, [det])
    assert graph_counts(system) == (0, 0, 0, 0, 0)
    assert system.next_landmark_id == 0
    det.point[1] = 0.3
    system.add_keyframe(None, [det])
    assert graph_counts(system) == (1, 1, 1, 2, 1)


@pytest.mark.parametrize("case", ["embedding-length", "non-finite-covariance"])
def test_add_keyframe_rejects_malformed_detection_on_a_mapped_keyframe(case):
    # keyframe 0 maps one landmark with a 4-D embedding; keyframe 1 then
    # brings a 5-D embedding, or a covariance made NaN after construction,
    # which would raise only after pose 1 and its between were added
    system = pl.SlamSystem(slam_config())
    system.add_keyframe(None, [ObjectDetection(np.array([1.0, 0.0, 0.0, 0.0]),
                                               np.array([1.5, 0.3, 0.0]), np.eye(3) * 0.01)])
    rel = Pose3(np.array([1, 0, 0, 0.0]), np.array([0.1, 0.0, 0.0]))
    good = ObjectDetection(np.array([0.0, 1.0, 0.0, 0.0]), np.array([-1.4, 0.3, 0.0]),
                           np.eye(3) * 0.01)
    if case == "embedding-length":
        bad = ObjectDetection(np.array([0.0, 1.0, 0.0, 0.0, 0.0]), good.point, np.eye(3) * 0.01)
    else:
        bad = ObjectDetection(good.embedding, good.point, np.eye(3) * 0.01)
        bad.point_covariance[1, 1] = np.nan  # bypasses the constructor's check
    before = graph_counts(system)
    registry = {j: (lm.position.copy(), lm.embedding.copy(), lm.count)
                for j, lm in system.registry.items()}
    gate_cov = system._gate_cov.copy()
    for _ in range(2):  # a second attempt meets the same, untouched system
        with pytest.raises(DataFormatError):
            system.add_keyframe((rel, np.full(6, 1e-3)), [good, bad])
        assert graph_counts(system) == before
        assert system.next_landmark_id == 1
        assert registry.keys() == system.registry.keys()
        for j, (position, embedding, count) in registry.items():
            assert np.array_equal(system.registry[j].position, position)
            assert np.array_equal(system.registry[j].embedding, embedding)
            assert system.registry[j].count == count
        assert np.array_equal(system._gate_cov, gate_cov)
    system.add_keyframe((rel, np.full(6, 1e-3)), [good])  # the retry succeeds
    assert graph_counts(system) == (2, 2, 2, 4, 2)


@pytest.mark.parametrize("shape", [(2, 2), ()], ids=["2-d", "0-d"])
def test_add_keyframe_rejects_a_non_1d_embedding_on_an_empty_map(shape):
    # with no landmark to compare lengths against, a detection whose embedding
    # was reshaped after construction would be mapped, and a later keyframe
    # would fail inside association after its pose was added
    system = pl.SlamSystem(slam_config())
    det = ObjectDetection(np.array([1.0, 0.0, 0.0, 1.0]), np.array([1.5, 0.3, 0.0]),
                          np.eye(3) * 0.01)
    embedding = det.embedding
    det.embedding = np.ones(shape)  # bypasses the constructor's check
    gate_cov = system._gate_cov.copy()
    for _ in range(2):
        with pytest.raises(DataFormatError, match="1-D"):
            system.add_keyframe(None, [det])
        assert graph_counts(system) == (0, 0, 0, 0, 0)
        assert system.next_landmark_id == 0
        assert np.array_equal(system._gate_cov, gate_cov)
    det.embedding = embedding
    system.add_keyframe(None, [det])  # the retry succeeds
    assert graph_counts(system) == (1, 1, 1, 2, 1)


def test_object_detection_rejects_a_non_1d_embedding():
    for embedding in (np.ones((2, 2)), np.array(1.0)):
        with pytest.raises(ValueError, match="1-D"):
            ObjectDetection(embedding, np.array([1.0, 0.0, 0.0]), np.eye(3) * 0.01)


def test_ambiguous_detection_is_dropped_counted_and_reported():
    # Keyframe 0 maps a landmark; keyframe 1 sees a same-class detection whose
    # D^2 lies between the beta and NEW_LANDMARK_BETA gates, so it is neither
    # associated nor mapped. Pose uncertainty is negligible against the
    # detections' sigma^2 I, so the innovation covariance is 2 sigma^2 I.
    cfg = slam_config()
    sigma, emb = 0.05, np.array([1.0, 0.0])
    d2 = 0.5 * (cfg.da.chi2_threshold + chi_square_quantile(3, NEW_LANDMARK_BETA))
    rel = Pose3(np.array([1, 0, 0, 0.0]), np.array([0.1, 0.0, 0.0]))
    seen = np.array([1.5, 0.3, 0.0])
    offset = np.array([np.sqrt(2.0 * sigma ** 2 * d2), 0.0, 0.0])
    dataset = sw.Dataset([
        sw.SimKeyframe(0.0, None, None, [ObjectDetection(emb, seen, np.eye(3) * sigma ** 2)]),
        sw.SimKeyframe(1.0, rel, np.full(6, 1e-6), [ObjectDetection(
            emb, inverse(rel).apply(seen) + offset, np.eye(3) * sigma ** 2)])], [[0], [0]])
    result = pl.run_slam(dataset, cfg)
    assert result.dropped_ambiguous == 1
    assert [lm.id for lm in result.landmarks] == [0]
    assert result.landmarks[0].count == 1
    assert pl.run_slam(dataset, cfg, odometry_only=True).dropped_ambiguous == 0


@pytest.mark.parametrize("bad", [-1e-4, 0.0, np.nan, np.inf])
def test_slam_config_rejects_bad_prior_sigma(bad):
    # a sigma is squared, so a negative one would pass as its absolute value
    sigma = np.full(6, 1e-4)
    sigma[2] = bad
    with pytest.raises(ValueError):
        pl.SlamConfig(prior_sigma=sigma)
    pl.SlamConfig(prior_sigma=np.full(6, 1e-4))


def test_object_detection_rejects_non_finite_point():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            ObjectDetection(np.array([1.0, 0.0]), np.array([1.0, bad, 0.0]), np.eye(3) * 0.01)


def test_propagated_gate_covariance_matches_graph_marginals():
    # Oracle: with no optimize in the run, the gate's joint (pose, landmarks)
    # covariance is carried by propagation alone. Every landmark is seen once,
    # so the graph is a tree whose initial estimate is the MAP estimate, and
    # every block of the propagated matrix must equal the graph's own joint
    # covariance: pose, pose-landmark, landmark and landmark-landmark.
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
    gate = system._snapshot(system.graph.poses[latest]).joint_cov
    oracle = system.graph.joint_covariance(latest, sorted(system.registry))
    assert gate.shape == oracle.shape == (15, 15)
    spans = {"pose": np.s_[:6]} | {f"landmark {j}": np.s_[6 + 3 * j:9 + 3 * j]
                                   for j in system.registry}
    for row, rows in spans.items():
        for col, cols in spans.items():
            want = oracle[rows, cols]
            err = np.linalg.norm(gate[rows, cols] - want) / np.linalg.norm(want)
            assert err < 1e-9, (row, col, err)


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


def run_system(dataset, cfg):
    system = pl.SlamSystem(cfg)
    for k, kf in enumerate(dataset.keyframes):
        system.add_keyframe(None if k == 0 else (kf.odom, kf.odom_sigmas), kf.detections)
    system.finalize()
    return system


@pytest.mark.parametrize("strategy", ["mm", "em"])
def test_close_same_class_objects_form_mixture_and_em_groups(strategy):
    # two objects of one class 0.15 m apart: a detection of either lands in
    # both chi-square gates whenever the other one is not claimed first
    cfg = sw.WorldConfig(object_count=6, class_count=4, embedding_dim=16, loops=2,
                         keyframes_per_loop=80, path_length=8.0)
    world = sw.generate_world(cfg, 0)
    a, b = world.objects[0], world.objects[1]
    b.class_id = a.class_id
    b.position = a.position + np.array([0.15, 0.0, 0.0])
    traj = sw.generate_trajectory(cfg.loops, cfg.keyframes_per_loop, cfg.path_length,
                                  cfg.rate_hz)
    dataset = sw.generate_dataset(world, traj, sw.NoiseModel(multiplier=3.0), 100)

    system = run_system(dataset, slam_config(strategy, optimize_every=20))
    factors = system.graph.factors
    if strategy == "mm":
        groups = sum(len(f.landmark_keys) > 1 for f in factors
                     if isinstance(f, fx.MixtureObservationFactor))
    else:
        sizes = Counter(f.group_id for f in factors
                        if isinstance(f, fx.WeightedObservationFactor))
        groups = sum(size > 1 for size in sizes.values())
    assert groups > 0
    slam_ape = ape(system.trajectory([kf.t for kf in dataset.keyframes]), traj).mean
    odom = pl.run_slam(dataset, slam_config(strategy), odometry_only=True)
    assert slam_ape < ape(odom.trajectory, traj).mean


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


@pytest.mark.parametrize("position, embedding", [([np.nan, 0.0, 0.0], [1.0, 0.0]),
                                                 ([0.0, 0.0, 0.0], [1.0, np.inf])],
                         ids=["nan-position", "inf-embedding"])
def test_load_map_rejects_non_finite_landmark(tmp_path, position, embedding):
    path = tmp_path / "map.jsonl"
    pl.save_map(path, [Landmark(1, np.zeros(3), np.array([1.0, 0.0])),
                       Landmark(2, np.array(position), np.array(embedding))])
    with pytest.raises(DataFormatError) as raised:
        pl.load_map(path)
    assert str(raised.value).startswith(f"{path}:2: ")


def test_load_map_rejects_non_vector_embedding(tmp_path):
    # written by hand: save_map cannot write a 2-D embedding
    path = tmp_path / "map.jsonl"
    path.write_text('{"id": 1, "position": [0, 0, 0], "embedding": [1, 0]}\n'
                    '{"id": 2, "position": [0, 0, 0], "embedding": [[1, 0], [0, 1]]}\n')
    with pytest.raises(DataFormatError) as raised:
        pl.load_map(path)
    assert str(raised.value).startswith(f"{path}:2: ")
