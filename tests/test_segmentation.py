import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from objectslam import segmentation as seg
from objectslam import simworld as sw
from objectslam.errors import DataFormatError
from objectslam.geometry import Pose3
from oracles import (flood_fill_components, kmeans_reference, nearest_prototype_labels,
                     vote_saliency_reference)


def make_grid(features, attention=None, depth=None):
    features = np.asarray(features, dtype=float)
    h, w, _ = features.shape
    if attention is None:
        attention = np.ones((1, h, w))
    if depth is None:
        depth = np.full((h, w), 2.0)
    return seg.FeatureGrid(features, attention, depth)


def test_cluster_uniform_grid_single_cluster():
    features = np.tile(np.array([1.0, -2.0, 3.0]), (4, 4, 1))
    grid = make_grid(features)
    cm = seg.cluster_features(grid, k=1, max_iters=10, seed=0)
    assert set(np.unique(cm.labels)) == {0}
    assert np.allclose(cm.centroids[0], [1.0, -2.0, 3.0])


def test_cluster_two_blobs_exact_bipartition():
    features = np.zeros((4, 4, 2))
    features[:, :2, 0] = 10.0
    features[:, 2:, 0] = -10.0
    rng = np.random.default_rng(0)
    features += rng.normal(scale=0.01, size=features.shape)
    grid = make_grid(features)
    cm = seg.cluster_features(grid, k=2, max_iters=20, seed=1)
    points = features.reshape(-1, 2)
    want = nearest_prototype_labels(points, cm.centroids)
    assert np.array_equal(cm.labels.ravel(), want)
    left = cm.labels[:, :2].ravel()
    right = cm.labels[:, 2:].ravel()
    assert len(set(left)) == 1 and len(set(right)) == 1 and left[0] != right[0]


def test_cluster_fixed_point_and_wcss_monotone():
    rng = np.random.default_rng(2)
    for trial in range(20):
        features = rng.normal(size=(8, 8, 3))
        grid = make_grid(features)
        cm = seg.cluster_features(grid, k=4, max_iters=30, seed=trial)
        # reassigning to nearest returned centroid changes no label
        points = features.reshape(-1, 3)
        d2 = ((points[:, None, :] - cm.centroids[None]) ** 2).sum(-1)
        assert np.array_equal(np.argmin(d2, axis=1), cm.labels.ravel())
        # centroids are the means of their members
        for c in range(cm.k):
            mask = cm.labels.ravel() == c
            if mask.any():
                assert np.allclose(cm.centroids[c], points[mask].mean(0), atol=1e-6)
        wcss = np.array(cm.wcss_history)
        assert np.all(np.diff(wcss) <= 1e-9)


def test_cluster_rejects_k_above_distinct():
    features = np.tile(np.array([1.0, 0.0]), (3, 3, 1))
    grid = make_grid(features)
    with pytest.raises(ValueError):
        seg.cluster_features(grid, k=2)


def test_cluster_deterministic():
    rng = np.random.default_rng(3)
    features = rng.normal(size=(6, 6, 4))
    grid = make_grid(features)
    a = seg.cluster_features(grid, k=3, seed=7)
    b = seg.cluster_features(grid, k=3, seed=7)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centroids, b.centroids)


def assert_matches_kmeans_reference(features, k, seed, max_iters=50) -> int:
    """Bit-identical labels and centroids against the per-cluster reference,
    one WCSS per assignment, each within 1e-12 * sum |p|^2 of the reference's
    direct sum of (p - c)^2 (the expanded form that the assignment ranks by
    cancels to about 1e-16 of it); returns the reference's reseed count."""
    cm = seg.cluster_features(make_grid(features), k, max_iters, seed)
    labels, centroids, wcss_history, reseeds = kmeans_reference(features, k, max_iters, seed)
    assert np.array_equal(cm.labels, labels)
    assert np.array_equal(cm.centroids, centroids)
    assert len(cm.wcss_history) == len(wcss_history)
    scale = float(np.sum(features * features))
    assert np.all(np.abs(np.subtract(cm.wcss_history, wcss_history)) <= 1e-12 * scale)
    return reseeds


def test_cluster_matches_reference_on_random_grids():
    rng = np.random.default_rng(9)
    for trial in range(24):
        centers = rng.normal(size=(int(rng.integers(4, 13)), 32))
        features = (centers[rng.integers(len(centers), size=(32, 32))]
                    + rng.normal(scale=rng.uniform(0.05, 1.0), size=(32, 32, 32)))
        assert_matches_kmeans_reference(features, k=8, seed=trial)


def test_cluster_matches_reference_through_an_empty_cluster_reseed():
    # 1-D along feature 0. With seed 249, cluster 0 is seeded at 1.4 between
    # a left and a right group; after the first update both neighbours'
    # means close in and take all of its members, so the second update finds
    # it empty and reseeds it against the not yet updated clusters 1 and 2.
    values = [-3.5, -1.3, -1.5, -1.8, -0.9, 1.3, 2.0, 1.6, 2.0, 1.4, 1.7, 1.8, 2.4, -3.4]
    features = np.zeros((2, 7, 2))
    features[..., 0] = np.reshape(values, (2, 7))
    assert assert_matches_kmeans_reference(features, k=3, seed=249) == 1


def test_cluster_matches_reference_with_duplicate_rows_at_distinct_k():
    rng = np.random.default_rng(10)
    for trial in range(10):
        k = int(rng.integers(2, 9))
        values = rng.normal(size=(k, 4))
        index = np.concatenate([np.arange(k), rng.integers(k, size=16 * 16 - k)])
        features = values[rng.permutation(index)].reshape(16, 16, 4)
        assert_matches_kmeans_reference(features, k, seed=trial)


@pytest.mark.parametrize("rows, k", [
    ([[1.0, 0.0]], 2),                            # one distinct row
    ([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]], 5),    # three distinct rows
    ([[1e200, 0.0], [-1e200, 0.0]], 3),           # squared distances overflow
])
def test_cluster_k_above_distinct_raises_the_reference_error(rows, k):
    features = np.asarray(rows)[np.arange(16) % len(rows)].reshape(4, 4, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError) as got:
            seg.cluster_features(make_grid(features), k)
        with pytest.raises(ValueError) as want:
            kmeans_reference(features, k)
    assert str(got.value) == str(want.value)
    assert "distinct feature vectors" in str(got.value)


@st.composite
def tied_grids(draw):
    """(features, k, seed): an H x W x D grid (2-6, 2-6, 2-4) whose entries
    take four values, so duplicate rows and equidistant centroids are common;
    k runs one past the distinct rows (at most 8 + 1), so k above them occurs
    too."""
    h, w, d = draw(st.integers(2, 6)), draw(st.integers(2, 6)), draw(st.integers(2, 4))
    entries = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                            min_size=h * w * d, max_size=h * w * d))
    features = np.reshape(entries, (h, w, d))
    distinct = np.unique(features.reshape(-1, d), axis=0).shape[0]
    return features, draw(st.integers(1, min(distinct, 8) + 1)), draw(st.integers(0, 2**16))


# six values along feature 0; with seed 11 the second update finds a cluster
# empty and reseeds it, which random grids over a few values almost never do
RESEED_GRID = np.stack([np.array([
    [-3.0, -3.7, 0.7, -3.7, -3.7, -0.2], [-3.0, -3.0, 2.8, -0.2, 0.7, 0.7],
    [-3.0, 2.7, -3.0, 2.8, 0.7, 0.7], [-3.7, 2.8, 2.7, 0.7, 0.7, 0.7]]), np.zeros((4, 6))], axis=2)


@settings(max_examples=300, deadline=None)
@given(tied_grids())
@example((RESEED_GRID, 3, 11))
def test_cluster_matches_reference_on_small_tied_grids(case):
    features, k, seed = case
    try:
        kmeans_reference(features, k, seed=seed)
    except ValueError as want:
        with pytest.raises(ValueError) as got:
            seg.cluster_features(make_grid(features), k, seed=seed)
        assert str(got.value) == str(want)
        return
    assert_matches_kmeans_reference(features, k, seed)


def test_vote_saliency_unanimous_and_empty():
    labels = np.zeros((4, 4), dtype=int)
    labels[1:3, 1:3] = 1
    cm = seg.ClusterMap(labels, np.zeros((2, 2)))
    attention = np.zeros((3, 4, 4))
    attention[:, 1:3, 1:3] = 1.0
    assert seg.vote_saliency(cm, attention, 0.5) == {1}
    assert seg.vote_saliency(cm, np.zeros((3, 4, 4)), 0.5) == set()


def test_vote_saliency_two_of_three_heads():
    labels = np.zeros((4, 4), dtype=int)
    labels[1:3, 1:3] = 1
    cm = seg.ClusterMap(labels, np.zeros((2, 2)))
    attention = np.zeros((3, 4, 4))
    attention[0, 1:3, 1:3] = 1.0
    attention[1, 1:3, 1:3] = 1.0
    attention[2, 0, :] = 1.0  # third head looks elsewhere
    # cluster 1 attended by exactly 2 of 3 heads: 2/3 > 0.6 -> salient
    assert 1 in seg.vote_saliency(cm, attention, 0.6)
    # threshold 0.7 rejects it
    assert 1 not in seg.vote_saliency(cm, attention, 0.7)


def test_vote_saliency_matches_per_head_reference():
    # attention from a few integer levels puts ties at the cutoff, and some
    # grids hold a head with no attention at all, or a single head
    rng = np.random.default_rng(11)
    for trial in range(300):
        k = int(rng.integers(1, 8))
        shape = tuple(rng.integers(2, 12, size=2))
        labels = rng.integers(k, size=shape)
        heads = 1 if trial % 3 == 0 else int(rng.integers(2, 7))
        levels = int(rng.integers(1, 5))
        attention = rng.integers(levels + 1, size=(heads,) + shape).astype(float)
        if trial % 3 == 1:
            attention[rng.integers(heads)] = 0.0
        if trial % 2:
            attention *= rng.uniform(0.1, 10.0)
        fraction = float(rng.choice([0.0, 0.25, 0.5, 1.0, rng.uniform()]))
        threshold = float(rng.choice([0.0, 0.5, 1.0, rng.uniform()]))
        cm = seg.ClusterMap(labels, np.zeros((k, 2)))
        assert seg.vote_saliency(cm, attention, threshold, fraction) == \
            vote_saliency_reference(labels, k, attention, threshold, fraction)


@pytest.mark.parametrize("fraction", [-0.1, 1.5, float("nan")])
def test_vote_saliency_rejects_mass_fraction_outside_unit_interval(fraction):
    cm = seg.ClusterMap(np.zeros((4, 4), dtype=int), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="attended_mass_fraction"):
        seg.vote_saliency(cm, np.ones((1, 4, 4)), 0.5, fraction)


def detection_bytes(detections):
    return [(d.embedding.tobytes(), d.point.tobytes(), d.point_covariance.tobytes(), d.area)
            for d in detections]


def test_detect_matches_oracles_on_rendered_grids(monkeypatch):
    grid_config = sw.GridConfig()
    rng = np.random.default_rng(12)
    frames = []
    for seed in range(8):
        count = int(rng.integers(2, 7))
        world = sw.generate_world(sw.WorldConfig(object_count=count, class_count=4,
                                                 embedding_dim=16), seed=seed)
        world.objects = [sw.WorldObject(i, np.array([rng.uniform(-0.9, 0.9),
                                                     rng.uniform(-0.6, 0.6),
                                                     rng.uniform(1.5, 3.5)]),
                                        int(rng.integers(4)))
                         for i in range(count)]
        grid, _ = sw.synthesize_feature_grid(world, Pose3.identity(), grid_config, seed)
        frames.append(grid)
    config = seg.SegmentationConfig(k=5, fx=grid_config.fx, fy=grid_config.fy,
                                    cx=grid_config.cx, cy=grid_config.cy,
                                    patch_size=grid_config.patch_size)
    got = [seg.detect(grid, config) for grid in frames]
    assert sum(map(len, got)) >= len(frames)  # the frames do hold objects

    def cluster_oracle(grid, k, max_iters, seed):
        labels, centroids, history, _ = kmeans_reference(grid.features, k, max_iters, seed)
        return seg.ClusterMap(labels, centroids, history)

    def vote_oracle(clusters, attention, vote_threshold, attended_mass_fraction):
        return vote_saliency_reference(clusters.labels, clusters.k, attention,
                                       vote_threshold, attended_mass_fraction)

    monkeypatch.setattr(seg, "cluster_features", cluster_oracle)
    monkeypatch.setattr(seg, "vote_saliency", vote_oracle)
    for grid, dets in zip(frames, got):
        assert detection_bytes(seg.detect(grid, config)) == detection_bytes(dets)


def test_refine_mask_cases():
    line = np.zeros((8, 8), dtype=bool)
    line[4, 1:7] = True
    assert not seg.refine_mask(line, 1).any()

    square = np.zeros((14, 14), dtype=bool)
    square[2:12, 2:12] = True
    assert np.array_equal(seg.refine_mask(square, 1), square)

    rng = np.random.default_rng(4)
    m = rng.random((16, 16)) > 0.5
    once = seg.refine_mask(m, 1)
    assert np.array_equal(seg.refine_mask(once, 1), once)
    assert not (once & ~m).any()  # opening is anti-extensive


def test_connected_components_cases():
    mask = np.zeros((6, 6), dtype=bool)
    mask[0:2, 0:2] = True
    mask[4:6, 4:6] = True
    comps = seg.connected_components(mask, 8)
    assert len(comps) == 2
    assert all(c.area == 4 for c in comps)

    diag = np.zeros((4, 4), dtype=bool)
    diag[1, 1] = True
    diag[2, 2] = True
    assert len(seg.connected_components(diag, 8)) == 1
    assert len(seg.connected_components(diag, 4)) == 2

    assert seg.connected_components(np.zeros((4, 4), dtype=bool), 8) == []


def random_walk_mask(rng, shape, walks, steps):
    """Union of random walks with 4- or 8-neighbour steps: each walk is a
    4- or 8-connected set, so the two connectivities disagree on the union."""
    offsets = [(-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1)]
    mask = np.zeros(shape, dtype=bool)
    for _ in range(walks):
        moves = offsets[:4] if rng.random() < 0.5 else offsets
        r, c = rng.integers(shape[0]), rng.integers(shape[1])
        for _ in range(rng.integers(1, steps)):
            mask[r, c] = True
            dr, dc = moves[rng.integers(len(moves))]
            r, c = min(max(r + dr, 0), shape[0] - 1), min(max(c + dc, 0), shape[1] - 1)
    return mask


def check_against_flood_fill(mask):
    # the oracle finds components in raster order of their first patch
    for conn in (4, 8):
        comps = seg.connected_components(mask, conn)
        assert [frozenset(map(tuple, c.members)) for c in comps] == \
            flood_fill_components(mask, conn)
        for c in comps:
            assert [tuple(m) for m in c.members] == sorted(map(tuple, c.members))


def test_connected_components_match_flood_fill_oracle():
    rng = np.random.default_rng(5)
    for trial in range(200):
        check_against_flood_fill(rng.random((32, 32)) < rng.uniform(0.2, 0.8))
    for trial in range(100):
        shape = tuple(rng.integers(1, 40, size=2))
        check_against_flood_fill(random_walk_mask(rng, shape, rng.integers(1, 8), 60))


def test_connected_components_partition():
    rng = np.random.default_rng(6)
    mask = rng.random((20, 20)) < 0.6
    comps = seg.connected_components(mask, 8)
    cells = [tuple(m) for c in comps for m in c.members]
    assert len(cells) == len(set(cells)) == int(mask.sum())


def test_filter_components():
    h = w = 32
    small = seg.InstanceComponent(0, np.array([[5, 5], [5, 6], [6, 5]]))
    interior = seg.InstanceComponent(0, np.array([[r, c] for r in range(10, 15) for c in range(10, 15)]))
    border = seg.InstanceComponent(0, np.array([[r, 0] for r in range(10, 20)]))
    kept = seg.filter_components([small, interior, border], min_size=4, shape=(h, w))
    assert kept == [interior]


def test_extract_objects_pinhole():
    fx = fy = 100.0
    cx = cy = 64.0
    n = 8
    depth = np.full((16, 16), 2.0)
    grid = seg.FeatureGrid(np.zeros((16, 16, 2)), np.ones((1, 16, 16)), depth)
    centroids = np.array([[0.3, 0.4]])
    cm = seg.ClusterMap(np.zeros((16, 16), dtype=int), centroids)
    # component whose pixel centroid lands on (cx, cy): patches 7..8 in both axes
    members = np.array([[r, c] for r in (7, 8) for c in (7, 8)])
    comp = seg.InstanceComponent(0, members)
    dets = seg.extract_objects([comp], cm, grid, fx, fy, cx, cy, n, seg.GammaModel())
    assert len(dets) == 1
    assert np.allclose(dets[0].point, [0.0, 0.0, 2.0], atol=1e-12)
    assert np.allclose(dets[0].embedding, centroids[0])

    # centroid at (cx + fx, cy) with depth 1 -> point (1, 0, 1)
    depth1 = np.full((32, 32), 1.0)
    grid1 = seg.FeatureGrid(np.zeros((32, 32, 2)), np.ones((1, 32, 32)), depth1)
    cm1 = seg.ClusterMap(np.zeros((32, 32), dtype=int), centroids)
    u_target = (cx + fx) / n - 0.5  # patch column whose center maps to cx + fx
    members = np.array([[10, int(u_target)]])
    dets = seg.extract_objects([seg.InstanceComponent(0, members)], cm1, grid1,
                               fx, fy, cx, cy, n, seg.GammaModel())
    assert np.allclose(dets[0].point[0], 1.0, atol=1e-9)
    assert np.allclose(dets[0].point[2], 1.0)


def test_extract_objects_reprojects_to_pixel_centroid():
    rng = np.random.default_rng(7)
    fx = fy = 120.0
    cx = cy = 128.0
    n = 8
    for _ in range(20):
        depth = np.full((32, 32), rng.uniform(1.0, 4.0))
        grid = seg.FeatureGrid(np.zeros((32, 32, 2)), np.ones((1, 32, 32)), depth)
        cm = seg.ClusterMap(np.zeros((32, 32), dtype=int), np.array([[1.0, 0.0]]))
        rows = rng.integers(2, 30, size=6)
        cols = rng.integers(2, 30, size=6)
        members = np.unique(np.stack([rows, cols], axis=1), axis=0)
        comp = seg.InstanceComponent(0, members)
        det = seg.extract_objects([comp], cm, grid, fx, fy, cx, cy, n, seg.GammaModel())[0]
        x, y, z = det.point
        u = cx + fx * x / z
        v = cy + fy * y / z
        u_true = (members[:, 1] + 0.5).mean() * n
        v_true = (members[:, 0] + 0.5).mean() * n
        assert abs(u - u_true) < 0.5 and abs(v - v_true) < 0.5


def test_extract_objects_drops_invalid_depth():
    grid = seg.FeatureGrid(np.zeros((8, 8, 2)), np.ones((1, 8, 8)), np.zeros((8, 8)))
    cm = seg.ClusterMap(np.zeros((8, 8), dtype=int), np.array([[1.0, 0.0]]))
    comp = seg.InstanceComponent(0, np.array([[3, 3], [3, 4]]))
    stats = {}
    dets = seg.extract_objects([comp], cm, grid, 100, 100, 32, 32, 8, seg.GammaModel(), stats)
    assert dets == []
    assert stats["dropped_no_depth"] == 1


def test_feature_grid_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    grid = seg.FeatureGrid(
        rng.normal(size=(8, 10, 5)).astype(np.float32),
        rng.random((3, 8, 10)).astype(np.float32),
        rng.random((8, 10)).astype(np.float32),
    )
    path = tmp_path / "grid.fgrd"
    seg.save_feature_grid(path, grid)
    back = seg.load_feature_grid(path)
    assert back.features.shape == (8, 10, 5)
    assert np.allclose(back.features, grid.features, atol=1e-6)
    assert np.allclose(back.attention, grid.attention, atol=1e-6)
    assert np.allclose(back.depth, grid.depth, atol=1e-6)


@pytest.mark.parametrize("field, value", [
    ("features", np.nan), ("attention", np.nan), ("attention", np.inf),
    ("depth", np.nan), ("depth", np.inf), ("attention", -1.0), ("depth", -1.0)])
def test_feature_grid_rejects_non_finite_or_negative_input(field, value):
    arrays = {"features": np.zeros((4, 4, 2)), "attention": np.ones((2, 4, 4)),
              "depth": np.ones((4, 4))}
    arrays[field].flat[5] = value
    with pytest.raises(ValueError):
        seg.FeatureGrid(**arrays)


def test_load_feature_grid_rejects_non_finite_values(tmp_path):
    grid = seg.FeatureGrid(np.zeros((4, 4, 2)), np.ones((1, 4, 4)), np.ones((4, 4)))
    path = tmp_path / "grid.fgrd"
    seg.save_feature_grid(path, grid)
    raw = bytearray(path.read_bytes())
    raw[20:24] = np.float32(np.nan).tobytes()  # the first feature value
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="non-finite features"):
        seg.load_feature_grid(path)


def test_load_feature_grid_rejects_a_file_shorter_than_its_header(tmp_path):
    path = tmp_path / "short.fgrd"
    path.write_bytes(seg.FGRD_MAGIC + b"\x01\x00")
    with pytest.raises(DataFormatError, match="truncated header"):
        seg.load_feature_grid(path)


def test_load_feature_grid_size_check_does_not_wrap(tmp_path):
    # 65536 * 65536 wraps to 0 in u32, so a u32 size check would expect 20 bytes
    path = tmp_path / "huge.fgrd"
    path.write_bytes(seg.FGRD_MAGIC + np.array([65536, 65536, 1, 1], dtype="<u4").tobytes())
    with pytest.raises(DataFormatError, match="truncated grid file"):
        seg.load_feature_grid(path)


def test_feature_grid_bad_magic(tmp_path):
    path = tmp_path / "bad.fgrd"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(DataFormatError):
        seg.load_feature_grid(path)


def test_detections_jsonl_round_trip(tmp_path):
    det = seg.ObjectDetection(np.array([0.1, 0.9]), np.array([1.0, 2.0, 3.0]), np.eye(3) * 0.01, area=9)
    path = tmp_path / "det.jsonl"
    seg.save_detections(path, [det], frame=4)
    import json

    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[0]["frame"] == 4 and rows[0]["area"] == 9
    back = seg.detection_from_json(rows[0])
    assert np.allclose(back.point, det.point)
    assert np.allclose(back.point_covariance, det.point_covariance)


def test_detection_from_json_rejects_wrong_types():
    record = seg.detection_to_json(
        seg.ObjectDetection(np.array([0.1, 0.9]), np.zeros(3), np.eye(3), area=9))
    for bad in ({**record, "area": None}, list(record.values())):
        with pytest.raises(DataFormatError):
            seg.detection_from_json(bad)


NON_FINITE_COVS = {"nan-diagonal": np.diag([1e-2, np.nan, 1e-2]),
                   "all-nan": np.full((3, 3), np.nan),
                   "inf-diagonal": np.diag([1e-2, np.inf, 1e-2])}


@pytest.mark.parametrize("cov", NON_FINITE_COVS.values(), ids=NON_FINITE_COVS.keys())
def test_object_detection_rejects_non_finite_covariance(cov):
    # NaN fails no comparison in the symmetry check, and np.linalg.cholesky
    # returns NaN for it instead of raising
    with pytest.raises(ValueError, match="covariance must be finite"):
        seg.ObjectDetection(np.ones(3), np.zeros(3), cov)


@pytest.mark.parametrize("cov", NON_FINITE_COVS.values(), ids=NON_FINITE_COVS.keys())
def test_detection_from_json_rejects_non_finite_covariance(cov):
    import json

    record = json.loads(json.dumps({"embedding": [1.0, 1.0, 1.0], "point": [0.0, 0.0, 0.0],
                                    "cov": cov.ravel().tolist(), "area": 9}))
    with pytest.raises(DataFormatError, match="covariance must be finite"):
        seg.detection_from_json(record)
