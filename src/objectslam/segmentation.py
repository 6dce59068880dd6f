"""Instance-level object extraction from patch-feature grids.

Pipeline: K-means over patch features, attention-based saliency voting,
morphological opening of each salient class mask, connected components,
size/border filtering, then dual centroid extraction (latent-space centroid
of the cluster plus a back-projected 3-D point with an isotropic covariance
that scales with range).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import DataFormatError, NumericalError

FGRD_MAGIC = b"FGRD"


@dataclass
class FeatureGrid:
    """H x W patch grid: per-patch feature vectors, attention heads, depth (m, 0 = invalid)."""

    features: np.ndarray   # (H, W, D)
    attention: np.ndarray  # (A, H, W)
    depth: np.ndarray      # (H, W)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.attention = np.asarray(self.attention, dtype=np.float64)
        self.depth = np.asarray(self.depth, dtype=np.float64)
        if self.features.ndim != 3:
            raise ValueError("features must be (H, W, D)")
        h, w, d = self.features.shape
        if h < 2 or w < 2 or d < 2:
            raise ValueError("require H, W >= 2 and D >= 2")
        if self.attention.shape[1:] != (h, w) or self.attention.shape[0] < 1:
            raise ValueError("attention must be (A, H, W) with A >= 1")
        if self.depth.shape != (h, w):
            raise ValueError("depth must be (H, W)")
        for name, values in (("features", self.features), ("attention", self.attention),
                             ("depth", self.depth)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"non-finite {name}")
        if np.any(self.attention < 0) or np.any(self.depth < 0):
            raise ValueError("attention and depth must be non-negative")

    @property
    def height(self) -> int:
        return self.features.shape[0]

    @property
    def width(self) -> int:
        return self.features.shape[1]

    @property
    def dim(self) -> int:
        return self.features.shape[2]

    @property
    def num_heads(self) -> int:
        return self.attention.shape[0]


@dataclass
class ClusterMap:
    """K-means result. ``wcss_history`` holds the within-cluster sum of squares
    after the seeding assignment and after each Lloyd iteration, so its length
    is iterations + 1. Each entry is the sum over patches of the squared
    distance to the assigned centroid in the expanded form
    |p|^2 - 2 p.c + |c|^2 that the assignment ranks by: within about
    1e-16 * sum |p|^2 of the direct sum of (p - c)^2."""

    labels: np.ndarray     # (H, W) ints in [0, k)
    centroids: np.ndarray  # (k, D)
    wcss_history: list[float] = field(default_factory=list)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


@dataclass
class InstanceComponent:
    cluster_id: int
    members: np.ndarray  # (m, 2) patch (row, col) coordinates, row-major order

    @property
    def area(self) -> int:
        return len(self.members)


@dataclass
class GammaModel:
    """Isotropic detection noise, sigma growing linearly with range."""

    sigma_per_meter: float = 0.025
    sigma_floor: float = 0.01

    def covariance(self, range_m: float) -> np.ndarray:
        sigma = max(self.sigma_floor, self.sigma_per_meter * range_m)
        return np.eye(3) * sigma * sigma


@dataclass
class ObjectDetection:
    """Per-frame object measurement: latent centroid + sensor-frame point + covariance."""

    embedding: np.ndarray
    point: np.ndarray
    point_covariance: np.ndarray
    area: int = 0

    def __post_init__(self):
        self.embedding = np.asarray(self.embedding, dtype=float)
        if self.embedding.ndim != 1:
            raise ValueError(f"embedding must be 1-D, got shape {self.embedding.shape}")
        self.point = np.asarray(self.point, dtype=float).reshape(3)
        self.point_covariance = np.asarray(self.point_covariance, dtype=float).reshape(3, 3)
        if not np.all(np.isfinite(self.embedding)) or np.linalg.norm(self.embedding) == 0.0:
            raise ValueError("embedding must be finite and non-zero")
        if not all(map(math.isfinite, self.point.tolist())):  # a fifth of np.isfinite's cost
            raise ValueError("point must be finite")
        cov = self.point_covariance
        if not all(map(math.isfinite, cov.ravel().tolist())):  # NaN passes both checks below
            raise ValueError("point covariance must be finite")
        if np.abs(cov - cov.T).max() > 1e-9:
            raise ValueError("point covariance must be symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("point covariance must be positive definite") from exc


@dataclass
class SegmentationConfig:
    k: int = 6
    max_iters: int = 50
    seed: int = 0
    vote_threshold: float = 0.5
    attended_mass_fraction: float = 0.5
    opening_radius: int = 1
    min_size: int = 4
    connectivity: int = 8
    fx: float = 128.0
    fy: float = 128.0
    cx: float = 128.0
    cy: float = 128.0
    patch_size: int = 8
    gamma: GammaModel = field(default_factory=GammaModel)


def cluster_features(grid: FeatureGrid, k: int, max_iters: int = 50, seed: int = 0) -> ClusterMap:
    """Lloyd's algorithm over the flattened patch features, deterministic per seed.

    Runs until the assignment is a fixed point (or max_iters), so the returned
    centroids are exactly the means of their member features: each cluster's
    members are summed in row order (one weighted ``np.bincount``), the same
    sums ``points[labels == c].mean(axis=0)`` forms, so results are
    bit-identical to that per-cluster loop. k above the number of distinct
    feature vectors raises ``ValueError``; k-means++ seeding detects it when it
    runs out of rows away from the chosen centroids, so valid grids never pay
    for a distinct-row sort. Features whose squared distances overflow raise
    ``NumericalError`` there too. The returned ``wcss_history`` has one entry per
    assignment (iterations + 1), each read off the distances that assignment
    computed (see ``ClusterMap``).

    The loop keeps its buffers across iterations: the (n, k) distance buffer,
    the row offsets of its WCSS gather and the (n, D) bincount index of
    ``_update_centroids``, built once after the seeding assignment. After each
    assignment, the rows whose label moved are both the fixed-point test (none
    moved) and the only index rows rewritten; an iteration moves a few percent
    of the patches on rendered frames.
    """
    points = grid.features.reshape(-1, grid.dim)
    n, dim = points.shape
    if k < 1 or k > n:
        raise ValueError(f"k={k} out of range for {n} patches")

    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(points, k, rng)
    sq_norms = np.sum(points * points, axis=1)[:, None]
    d2 = np.empty((n, k))
    row_starts = np.arange(0, n * k, k)
    labels, wcss = _assign(points, sq_norms, centroids, d2, row_starts)
    wcss_history = [wcss]
    columns = np.arange(dim)
    bins = labels[:, None] * dim + columns

    for _ in range(max_iters):
        centroids = _update_centroids(points, labels, bins, centroids, k)
        new_labels, wcss = _assign(points, sq_norms, centroids, d2, row_starts)
        wcss_history.append(wcss)
        moved = np.flatnonzero(new_labels != labels)
        labels = new_labels
        if not moved.size:
            break
        bins[moved] = labels[moved, None] * dim + columns

    return ClusterMap(labels.reshape(grid.height, grid.width), centroids, wcss_history)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = _squared_diff(points, centroids[0]).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        # D^2 sampling never picks a row at zero distance, so the i rows
        # chosen so far are distinct and k > distinct rows first shows here;
        # an overflowed total, which rng.choice would fail on as NaN odds,
        # raises NumericalError
        if total <= 0 or total == math.inf:
            distinct = np.unique(points, axis=0).shape[0]
            if k > distinct:
                raise ValueError(f"k={k} exceeds {distinct} distinct feature vectors")
            if total == math.inf:
                raise NumericalError("k-means++ seeding: squared feature distances overflow")
        if total <= 0:
            # all remaining points coincide with a centroid; pick any distinct row
            centroids[i] = points[rng.integers(n)]
        else:
            centroids[i] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, _squared_diff(points, centroids[i]).sum(axis=1))
    return centroids


def _assign(points: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray,
            d2: np.ndarray, row_starts: np.ndarray) -> tuple[np.ndarray, float]:
    """Nearest centroid per row from |p|^2 - 2 p.c + |c|^2, and the sum of
    each row's distance to it; sq_norms is (n, 1), d2 an (n, k) buffer the
    distances are written to and row_starts the flat offsets 0, k, 2k, ...
    of its rows."""
    np.matmul(points, -2.0 * centroids.T, out=d2)  # exactly -(2p . c): scaling by 2 does not round
    d2 += sq_norms
    d2 += np.sum(centroids * centroids, axis=1)
    labels = np.argmin(d2, axis=1)
    # each row's own distance by a flat gather, cheaper than a 2-D fancy index
    return labels, float(d2.ravel()[row_starts + labels].sum())


def _update_centroids(points, labels, bins, centroids, k):
    """Member means of each cluster. bins is the (n, D) bincount index
    labels[:, None] * D + column; the caller keeps it across iterations and
    rewrites only the rows whose label moved."""
    dim = points.shape[1]
    counts = np.bincount(labels, minlength=k)
    # bincount adds each bin's weights in index order: every cluster's rows in row order
    out = np.bincount(bins.ravel(), weights=points.ravel(), minlength=k * dim).reshape(k, dim)
    out /= np.maximum(counts, 1)[:, None]
    for c in np.flatnonzero(counts == 0):
        # deterministic reseed: point farthest from its current centroid, with
        # clusters below c already updated and those from c on not yet; each
        # empty cluster's row is written here before any later c reads it
        current = np.concatenate([out[:c], centroids[c:]])
        d2 = _squared_diff(points, current[labels]).sum(axis=1)
        out[c] = points[int(np.argmax(d2))]
    return out


def _squared_diff(points, other):
    """(points - other) ** 2 with one temporary: squaring in place is the same x * x."""
    diff = points - other
    diff *= diff
    return diff


def vote_saliency(clusters: ClusterMap, attention: np.ndarray, vote_threshold: float,
                  attended_mass_fraction: float = 0.5) -> set[int]:
    """Attention-head voting for foreground clusters.

    Per head, the patches holding the top `attended_mass_fraction` of the
    attention mass are attended (ties included, zero-attention patches never).
    A head votes for a cluster iff more than half of the cluster's patches are
    attended; a cluster is salient iff votes / heads > vote_threshold.
    """
    if not 0.0 <= vote_threshold <= 1.0:
        raise ValueError("vote_threshold must be in [0, 1]")
    if not 0.0 <= attended_mass_fraction <= 1.0:
        raise ValueError("attended_mass_fraction must be in [0, 1]")
    labels = clusters.labels.ravel()
    k = clusters.k
    num_heads = attention.shape[0]
    cluster_sizes = np.bincount(labels, minlength=k)

    w = attention.reshape(num_heads, -1)
    # each head's values in descending order; tied values add the same
    # whichever order they come in, so no stable argsort is needed
    ranked = np.sort(w, axis=1)[:, ::-1]
    csum = np.cumsum(ranked, axis=1)
    # the attended mass is the first prefix reaching the fraction of the total
    # (searchsorted "left" on the non-decreasing csum); a head with no mass
    # has a cutoff of 0 and so attends nothing
    cut = np.count_nonzero(csum < attended_mass_fraction * w.sum(axis=1)[:, None], axis=1)
    cutoff = ranked[np.arange(num_heads), np.minimum(cut, w.shape[1] - 1)]
    attended = (w >= cutoff[:, None]) & (w > 0)
    head_cluster = np.arange(0, num_heads * k, k)[:, None] + labels
    attended_per_cluster = np.bincount(head_cluster[attended],
                                       minlength=num_heads * k).reshape(num_heads, k)
    votes = np.count_nonzero(attended_per_cluster > 0.5 * cluster_sizes, axis=0)
    return {c for c in range(k) if cluster_sizes[c] > 0 and votes[c] / num_heads > vote_threshold}


def refine_mask(mask: np.ndarray, radius: int) -> np.ndarray:
    """Morphological opening with a square structuring element of the given radius."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    mask = np.asarray(mask, dtype=bool)
    if radius == 0:
        return mask.copy()
    structure = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
    eroded = ndimage.binary_erosion(mask, structure=structure, border_value=0)
    return ndimage.binary_dilation(eroded, structure=structure, border_value=0)


_CONNECTIVITY = {4: ndimage.generate_binary_structure(2, 1),
                 8: ndimage.generate_binary_structure(2, 2)}


def connected_components(mask: np.ndarray, connectivity: int = 8,
                         cluster_id: int = -1) -> list[InstanceComponent]:
    """Maximal connected sets of true patches, in raster order of each set's
    first patch; each set's members are sorted."""
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    # label numbers components in raster order of their first patch
    labels, count = ndimage.label(np.asarray(mask, dtype=bool), _CONNECTIVITY[connectivity])
    if not count:
        return []
    rows, cols = np.nonzero(labels)  # raster order
    label = labels[rows, cols]
    members = np.stack([rows, cols], axis=1)[np.argsort(label, kind="stable")]
    ends = np.cumsum(np.bincount(label)[1:])
    return [InstanceComponent(cluster_id, m) for m in np.split(members, ends[:-1])]


def filter_components(components: list[InstanceComponent], min_size: int,
                      shape: tuple[int, int]) -> list[InstanceComponent]:
    """Drop components smaller than min_size or touching the grid border."""
    h, w = shape
    out = []
    for comp in components:
        if comp.area < min_size:
            continue
        rows, cols = comp.members[:, 0], comp.members[:, 1]
        if rows.min() == 0 or rows.max() == h - 1 or cols.min() == 0 or cols.max() == w - 1:
            continue
        out.append(comp)
    return out


def extract_objects(components: list[InstanceComponent], clusters: ClusterMap,
                    grid: FeatureGrid, fx: float, fy: float, cx: float, cy: float,
                    patch_size: int, gamma_model: GammaModel,
                    stats: dict | None = None) -> list[ObjectDetection]:
    """Dual centroid per component: cluster's latent centroid + back-projected point.

    Range is the median of valid member depths; components with no valid depth
    are dropped and counted in stats["dropped_no_depth"].
    """
    if fx <= 0 or fy <= 0:
        raise ValueError("intrinsics must be positive")
    detections = []
    for comp in components:
        rows = comp.members[:, 0].astype(float)
        cols = comp.members[:, 1].astype(float)
        depths = grid.depth[comp.members[:, 0], comp.members[:, 1]]
        valid = depths > 0
        if not valid.any():
            if stats is not None:
                stats["dropped_no_depth"] = stats.get("dropped_no_depth", 0) + 1
            continue
        z = float(np.median(depths[valid]))
        u = float((cols + 0.5).mean()) * patch_size
        v = float((rows + 0.5).mean()) * patch_size
        point = np.array([(u - cx) * z / fx, (v - cy) * z / fy, z])
        detections.append(ObjectDetection(
            embedding=clusters.centroids[comp.cluster_id].copy(),
            point=point,
            point_covariance=gamma_model.covariance(z),
            area=comp.area,
        ))
    return detections


def detect(grid: FeatureGrid, config: SegmentationConfig,
           stats: dict | None = None) -> list[ObjectDetection]:
    """Full per-frame extraction: cluster, vote, open, label, filter, back-project."""
    clusters = cluster_features(grid, config.k, config.max_iters, config.seed)
    salient = vote_saliency(clusters, grid.attention, config.vote_threshold,
                            config.attended_mass_fraction)
    detections = []
    for cid in sorted(salient):
        mask = clusters.labels == cid
        opened = refine_mask(mask, config.opening_radius)
        comps = connected_components(opened, config.connectivity, cluster_id=cid)
        comps = filter_components(comps, config.min_size, (grid.height, grid.width))
        detections.extend(extract_objects(
            comps, clusters, grid, config.fx, config.fy, config.cx, config.cy,
            config.patch_size, config.gamma, stats))
    return detections


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def save_feature_grid(path, grid: FeatureGrid) -> None:
    """Binary layout: magic FGRD, u32 H W D A, then f32 features/attention/depth."""
    header = np.array([grid.height, grid.width, grid.dim, grid.num_heads], dtype="<u4")
    with open(path, "wb") as f:
        f.write(FGRD_MAGIC)
        f.write(header.tobytes())
        f.write(grid.features.astype("<f4").tobytes())
        f.write(grid.attention.astype("<f4").tobytes())
        f.write(grid.depth.astype("<f4").tobytes())


def load_feature_grid(path) -> FeatureGrid:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != FGRD_MAGIC:
        raise DataFormatError(f"{path}: bad magic, expected FGRD")
    if len(raw) < 20:
        raise DataFormatError(f"{path}: truncated header ({len(raw)} < 20 bytes)")
    # Python ints, so the expected size cannot wrap as a u32 product would
    h, w, d, a = struct.unpack_from("<4I", raw, 4)
    expect = 4 + 16 + 4 * (h * w * d + a * h * w + h * w)
    if len(raw) != expect:
        raise DataFormatError(f"{path}: truncated grid file ({len(raw)} != {expect} bytes)")
    offset = 20
    features = np.frombuffer(raw, dtype="<f4", count=h * w * d, offset=offset)
    offset += 4 * h * w * d
    attention = np.frombuffer(raw, dtype="<f4", count=a * h * w, offset=offset)
    offset += 4 * a * h * w
    depth = np.frombuffer(raw, dtype="<f4", count=h * w, offset=offset)
    try:
        return FeatureGrid(
            features.reshape(h, w, d).astype(float),
            attention.reshape(a, h, w).astype(float),
            depth.reshape(h, w).astype(float),
        )
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def save_detections(path, detections: list[ObjectDetection], frame: int = 0) -> None:
    import json

    with open(path, "w") as f:
        for det in detections:
            f.write(json.dumps(detection_to_json(det, frame)) + "\n")


def detection_to_json(det: ObjectDetection, frame: int = 0) -> dict:
    return {
        "frame": frame,
        "embedding": [round(float(x), 9) for x in det.embedding],
        "point": [round(float(x), 9) for x in det.point],
        "cov": [round(float(x), 12) for x in det.point_covariance.ravel()],
        "area": int(det.area),
    }


def detection_from_json(obj: dict) -> ObjectDetection:
    try:
        return ObjectDetection(
            embedding=np.array(obj["embedding"], dtype=float),
            point=np.array(obj["point"], dtype=float),
            point_covariance=np.array(obj["cov"], dtype=float).reshape(3, 3),
            area=int(obj.get("area", 0)),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise DataFormatError(f"bad detection record: {exc}") from exc
