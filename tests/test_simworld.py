import numpy as np
import pytest

from objectslam import simworld as sw
from objectslam.association import cosine_similarity
from objectslam.errors import DataFormatError
from objectslam.geometry import Pose3, compose, inverse, local, measurement_model_h
from objectslam.segmentation import SegmentationConfig, detect


def small_config(**overrides):
    base = dict(object_count=6, class_count=4, embedding_dim=16, loops=1,
                keyframes_per_loop=60, path_length=8.0)
    base.update(overrides)
    return sw.WorldConfig(**base)


def test_generate_world_empty_and_deterministic():
    cfg = small_config(object_count=0)
    world = sw.generate_world(cfg, seed=0)
    assert world.objects == []

    cfg = small_config()
    a = sw.generate_world(cfg, seed=3)
    b = sw.generate_world(cfg, seed=3)
    assert np.array_equal(a.prototypes, b.prototypes)
    assert all(np.array_equal(x.position, y.position) for x, y in zip(a.objects, b.objects))
    assert [x.class_id for x in a.objects] == [y.class_id for y in b.objects]


def test_prototypes_respect_min_angle():
    cfg = small_config(class_count=2, embedding_dim=2, min_prototype_angle=np.pi / 2)
    world = sw.generate_world(cfg, seed=1)
    # pairwise angle >= 90 deg: dot at most cos(90 deg)
    assert world.prototypes[0] @ world.prototypes[1] <= np.cos(np.pi / 2) + 1e-9

    cfg = small_config()
    world = sw.generate_world(cfg, seed=2)
    gram = world.prototypes @ world.prototypes.T
    off_diag = gram[~np.eye(len(gram), dtype=bool)]
    assert np.all(off_diag <= np.cos(cfg.min_prototype_angle) + 1e-12)


def test_prototype_rejection_fails_when_infeasible():
    cfg = small_config(class_count=5, embedding_dim=2, min_prototype_angle=np.radians(150))
    with pytest.raises(Exception):
        sw.generate_world(cfg, seed=0)


def test_trajectory_shape_and_closure():
    traj = sw.generate_trajectory(1, 100, path_length=8.0)
    assert len(traj) == 100
    t0, first = traj[0]
    assert t0 == 0.0
    assert np.allclose(first.translation, 0.0, atol=1e-12)
    assert np.allclose(first.rotation, [1, 0, 0, 0], atol=1e-12)
    # closed circuit: last pose within one step of the start
    step = np.linalg.norm(traj[1][1].translation - traj[0][1].translation)
    assert np.linalg.norm(traj[-1][1].translation - traj[0][1].translation) < 1.5 * step

    traj3 = sw.generate_trajectory(3, 500, path_length=21.7)
    assert len(traj3) == 1500
    assert traj3[1][0] - traj3[0][0] == pytest.approx(0.2)  # 5 Hz
    # path length: sum of consecutive distances
    pts = np.array([p.translation for _, p in traj3])
    length = np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1))
    assert length == pytest.approx(21.7, rel=0.01)


def test_corrupt_odometry_statistics():
    rng = np.random.default_rng(0)
    rel = Pose3.identity()
    noise = sw.NoiseModel(np.full(6, 0.01), multiplier=2.0)
    noisy, sigmas = sw.corrupt_odometry([rel] * 10_000, noise, rng)
    assert np.allclose(sigmas, 0.02)
    tangents = np.array([local(rel, n) for n in noisy])
    std = tangents.std(axis=0)
    assert np.all(np.abs(std - 0.02) / 0.02 < 0.03)

    # multiplier 5 vs 1: empirical std ratio 5 within 5%
    n1, _ = sw.corrupt_odometry([rel] * 10_000, sw.NoiseModel(np.full(6, 0.01), 1.0), 1)
    n5, _ = sw.corrupt_odometry([rel] * 10_000, sw.NoiseModel(np.full(6, 0.01), 5.0), 1)
    s1 = np.array([local(rel, n) for n in n1]).std(axis=0)
    s5 = np.array([local(rel, n) for n in n5]).std(axis=0)
    assert np.all(np.abs(s5 / s1 - 5.0) / 5.0 < 0.05)


def test_corrupt_odometry_zero_noise_limit():
    rel = Pose3(np.array([1, 0, 0, 0.0]), np.array([0.1, 0.0, 0.0]))
    noise = sw.NoiseModel(np.full(6, 1e-12), 1.0)
    noisy, _ = sw.corrupt_odometry([rel], noise, 0)
    assert np.linalg.norm(local(rel, noisy[0])) < 1e-9


def test_simulate_detections_noiseless_and_fov():
    cfg = small_config(sigma_point=0.0, sigma_embedding=0.0)
    world = sw.generate_world(cfg, seed=4)
    # behind the sensor: object at -x of an identity pose
    world.objects[0].position = np.array([-1.0, 0.0, 0.0])
    world.objects[1].position = np.array([1.5, 0.0, 0.0])
    pose = Pose3.identity()
    dets, truth = sw.simulate_detections(world, pose, rng=0)
    assert 0 not in truth
    assert 1 in truth
    det = dets[truth.index(1)]
    assert np.allclose(det.point, measurement_model_h(pose, world.objects[1].position), atol=1e-12)
    proto = world.prototypes[world.objects[1].class_id]
    assert cosine_similarity(det.embedding, proto) == pytest.approx(1.0)


def test_detection_embedding_noise_respects_class_gate():
    # Monte-Carlo over 10,000 draws at sigma_emb = 0.1, D = 32
    cfg = small_config(embedding_dim=32, sigma_embedding=0.1)
    world = sw.generate_world(cfg, seed=5)
    rng = np.random.default_rng(6)
    protos = world.prototypes
    n = 10_000
    cls = rng.integers(0, len(protos), size=n)
    per_axis = cfg.sigma_embedding / np.sqrt(32)
    noisy = protos[cls] + rng.normal(size=(n, 32)) * per_axis
    noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
    intra = np.einsum("ij,ij->i", noisy, protos[cls])
    assert np.mean(intra > 0.9) >= 0.99
    # inter-class cosine stays below the default gate
    other = (cls + 1) % len(protos)
    inter = np.einsum("ij,ij->i", noisy, protos[other])
    assert np.mean(inter < 0.8) >= 0.99


def test_every_object_observed_each_loop():
    cfg = small_config(object_count=10, loops=1, keyframes_per_loop=120)
    world = sw.generate_world(cfg, seed=7)
    traj = sw.generate_trajectory(1, 120, cfg.path_length)
    seen = set()
    for _, pose in traj:
        mask = sw.visible_object_mask(world, pose)
        seen.update(np.flatnonzero(mask).tolist())
    assert seen == set(range(10))


def test_dataset_round_trip(tmp_path):
    cfg = small_config()
    world, traj, dataset = sw.simulate(cfg, sw.NoiseModel(), seed=8)
    assert len(dataset) == len(traj)
    path = tmp_path / "data.jsonl"
    sw.save_dataset(path, dataset)
    back = sw.load_dataset(path)
    assert len(back) == len(dataset)
    for a, b in zip(dataset.keyframes, back.keyframes):
        assert a.t == pytest.approx(b.t)
        assert len(a.detections) == len(b.detections)
        if a.odom is not None:
            assert np.linalg.norm(local(a.odom, b.odom)) < 1e-8
            assert np.allclose(a.odom_sigmas, b.odom_sigmas)
    for k in range(len(dataset)):
        assert dataset.eval_truth_ids(k) == back.eval_truth_ids(k)


def test_dataset_determinism():
    cfg = small_config()
    _, _, d1 = sw.simulate(cfg, sw.NoiseModel(), seed=9)
    _, _, d2 = sw.simulate(cfg, sw.NoiseModel(), seed=9)
    for a, b in zip(d1.keyframes, d2.keyframes):
        if a.odom is not None:
            assert np.array_equal(a.odom.rotation, b.odom.rotation)
            assert np.array_equal(a.odom.translation, b.odom.translation)
        for da_, db_ in zip(a.detections, b.detections):
            assert np.array_equal(da_.point, db_.point)
            assert np.array_equal(da_.embedding, db_.embedding)


def test_dataset_rejects_bad_timestamps(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 1.0, "odom": null, "detections": []}\n'
                    '{"t": 0.5, "odom": null, "detections": []}\n')
    with pytest.raises(DataFormatError):
        sw.load_dataset(path)


def test_world_round_trip(tmp_path):
    cfg = small_config()
    world = sw.generate_world(cfg, seed=10)
    path = tmp_path / "world.json"
    sw.save_world(path, world)
    back = sw.load_world(path)
    assert back.config.object_count == cfg.object_count
    assert np.allclose(back.prototypes, world.prototypes, atol=1e-8)
    for a, b in zip(world.objects, back.objects):
        assert a.class_id == b.class_id
        assert np.allclose(a.position, b.position, atol=1e-8)


def test_closed_set_dataset_drops_classes():
    cfg = small_config(object_count=8, class_count=4)
    world, _, dataset = sw.simulate(cfg, sw.NoiseModel(), seed=11)
    closed = sw.closed_set_dataset(dataset, world, drop_fraction=0.5, seed=0)
    # surviving detections are one-hot in class space
    seen_classes = set()
    class_of = {o.id: o.class_id for o in world.objects}
    for k, kf in enumerate(closed.keyframes):
        for det, tid in zip(kf.detections, closed.eval_truth_ids(k)):
            assert det.embedding.shape == (4,)
            assert np.sum(det.embedding == 1.0) == 1
            cls = class_of[tid]
            assert det.embedding[cls] == 1.0
            seen_classes.add(cls)
    assert len(seen_classes) == 2  # half of 4 classes recognized


def test_synthesize_grid_empty_world():
    cfg = small_config(object_count=0)
    world = sw.generate_world(cfg, seed=12)
    grid, masks = sw.synthesize_feature_grid(world, Pose3.identity(), sw.GridConfig(), seed=0)
    assert masks == {}
    assert np.all(grid.depth == sw.GridConfig().background_depth)


def grid_world(positions, classes, dim=16, seed=13):
    cfg = small_config(object_count=len(positions), class_count=max(classes) + 1,
                       embedding_dim=dim)
    world = sw.generate_world(cfg, seed=seed)
    world.objects = [sw.WorldObject(i, np.asarray(p, float), c)
                     for i, (p, c) in enumerate(zip(positions, classes))]
    return world


def test_synthesize_grid_centered_object_detected():
    world = grid_world([[0.0, 0.0, 2.0]], [0])
    grid, masks = sw.synthesize_feature_grid(world, Pose3.identity(), sw.GridConfig(), seed=1)
    assert 0 in masks and masks[0].sum() >= 9
    seg_cfg = SegmentationConfig(k=2, fx=160.0, fy=160.0, cx=128.0, cy=128.0, patch_size=8)
    dets = detect(grid, seg_cfg)
    assert len(dets) == 1
    assert np.linalg.norm(dets[0].point - np.array([0.0, 0.0, 2.0])) < 0.1
    proto = world.prototypes[0]
    assert cosine_similarity(dets[0].embedding, proto) > 0.9


def test_synthesize_grid_masks_match_render():
    world = grid_world([[0.0, 0.0, 2.0], [-0.9, 0.3, 2.5], [0.8, -0.4, 2.2]], [0, 1, 2])
    grid, masks = sw.synthesize_feature_grid(world, Pose3.identity(), sw.GridConfig(), seed=2)
    # masks partition the non-background depth area exactly
    rendered = grid.depth != sw.GridConfig().background_depth
    union = np.zeros_like(rendered)
    for m in masks.values():
        assert not (union & m).any()
        union |= m
    assert np.array_equal(union, rendered)


def test_synthesize_grid_nearer_object_wins():
    world = grid_world([[0.0, 0.0, 2.0], [0.05, 0.0, 1.0]], [0, 1])
    grid, masks = sw.synthesize_feature_grid(world, Pose3.identity(), sw.GridConfig(), seed=3)
    overlap_depths = grid.depth[masks[1]]
    assert np.all(np.abs(overlap_depths - np.linalg.norm([0.05, 0, 1.0])) < 1e-9)


@pytest.mark.parametrize("point", ["[NaN, 0.0, 1.0]", "[0.0, Infinity, 1.0]"])
def test_dataset_rejects_non_finite_detection_point(tmp_path, point):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 1.0, "odom": null, "detections": [{"point": ' + point
                    + ', "cov": [0.01, 0, 0, 0, 0.01, 0, 0, 0, 0.01], "embedding": [1.0, 0.0]}]}\n')
    with pytest.raises(DataFormatError):
        sw.load_dataset(path)


@pytest.mark.parametrize("cov", ["[0.01, 0, 0, 0, NaN, 0, 0, 0, 0.01]", "[" + ", ".join(["NaN"] * 9) + "]",
                                 "[0.01, 0, 0, 0, Infinity, 0, 0, 0, 0.01]"],
                         ids=["nan-diagonal", "all-nan", "inf-diagonal"])
def test_dataset_rejects_non_finite_detection_covariance(tmp_path, cov):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 1.0, "odom": null, "detections": [{"point": [0.0, 0.0, 1.0], '
                    '"cov": ' + cov + ', "embedding": [1.0, 0.0]}]}\n')
    with pytest.raises(DataFormatError, match=f"{path.name}:1: point covariance must be finite"):
        sw.load_dataset(path)


def test_dataset_rejects_a_non_1d_embedding(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 1.0, "odom": null, "detections": [{"point": [0.0, 0.0, 1.0], '
                    '"cov": [0.01, 0, 0, 0, 0.01, 0, 0, 0, 0.01], "embedding": [[1.0, 0.0], [0.0, 1.0]]}]}\n')
    with pytest.raises(DataFormatError, match=f"{path.name}:1: embedding must be 1-D"):
        sw.load_dataset(path)


@pytest.mark.parametrize("sigma", ["NaN", "Infinity", "0.0", "-1.0"])
def test_dataset_rejects_bad_odometry_sigma(tmp_path, sigma):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 0.0, "odom": null, "detections": []}\n'
                    '{"t": 1.0, "odom": {"rel": [0.1, 0, 0, 0, 0, 0, 1.0], "sigma": [0.001, '
                    + sigma + ', 0.001, 0.001, 0.001, 0.001]}, "detections": []}\n')
    with pytest.raises(DataFormatError, match=f"{path.name}:2: odometry sigmas"):
        sw.load_dataset(path)
