"""Synthetic desk-scale worlds for exercising the full SLAM stack.

A ground robot strafes a closed circular circuit at 5 Hz with its sensor
facing the loop center, so every object in the surrounding field is observed
from many viewpoints per loop. Objects carry unit-norm class prototype
embeddings with a minimum pairwise angle; detections perturb both the point
(in the sensor frame) and the embedding. Odometry is corrupted by retracting
each true relative with a zero-mean Gaussian tangent draw whose per-axis
sigma is base * multiplier.

Ground-truth association labels ride along in the dataset but only behind
the evaluation accessor, so the SLAM path cannot read them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .association import one_hot_embedding
from .errors import DataFormatError, NumericalError
from .geometry import (
    Pose3,
    compose,
    inverse,
    measurement_model_h,
    quat_conj,
    quat_mul,
    quat_normalize,
    quat_rotate,
    se3_exp,
)
from .segmentation import FeatureGrid, ObjectDetection


@dataclass
class WorldConfig:
    object_count: int = 12
    class_count: int = 7
    embedding_dim: int = 32
    extent: float = 3.0                      # side of the square object field (m)
    min_prototype_angle: float = math.radians(60.0)
    detection_range: float = 2.8
    fov: float = math.radians(90.0)
    sigma_point: float = 0.05
    sigma_embedding: float = 0.05   # total embedding perturbation norm budget
    loops: int = 3
    keyframes_per_loop: int = 500
    path_length: float = 21.7
    rate_hz: float = 5.0
    gamma_floor: float = 1e-4

    @property
    def loop_radius(self) -> float:
        return self.path_length / (2.0 * math.pi * self.loops)

    @property
    def loop_center(self) -> np.ndarray:
        return np.array([self.loop_radius, 0.0, 0.0])


@dataclass
class WorldObject:
    id: int
    position: np.ndarray
    class_id: int


@dataclass
class World:
    config: WorldConfig
    objects: list[WorldObject]
    prototypes: np.ndarray             # (K, D) unit rows
    background_prototype: np.ndarray   # (D,) unit, used by the grid renderer

    def positions(self) -> np.ndarray:
        return (np.array([o.position for o in self.objects]).reshape(-1, 3)
                if self.objects else np.zeros((0, 3)))


@dataclass
class NoiseModel:
    """Odometry noise: per-axis base sigmas (x, y, z, roll, pitch, yaw) times a multiplier."""

    base_sigmas: np.ndarray = field(default_factory=lambda: np.full(6, 0.001))
    multiplier: float = 1.0

    def __post_init__(self):
        self.base_sigmas = np.asarray(self.base_sigmas, dtype=float).reshape(6)
        if np.any(self.base_sigmas <= 0) or self.multiplier <= 0:
            raise ValueError("noise sigmas and multiplier must be positive")

    @property
    def sigmas(self) -> np.ndarray:
        """(x, y, z, roll, pitch, yaw) standard deviations."""
        return self.base_sigmas * self.multiplier

    @property
    def tangent_sigmas(self) -> np.ndarray:
        """Reordered to the tangent convention (rx, ry, rz, tx, ty, tz)."""
        s = self.sigmas
        return np.concatenate([s[3:], s[:3]])


@dataclass
class SimKeyframe:
    t: float
    odom: Pose3 | None                 # relative motion from the previous keyframe
    odom_sigmas: np.ndarray | None     # (x, y, z, r, p, y) stds
    detections: list[ObjectDetection]


@dataclass
class Dataset:
    keyframes: list[SimKeyframe]
    _truth_ids: list[list[int]]

    def eval_truth_ids(self, frame: int) -> list[int]:
        """True object ids per detection. Evaluation only; not for the SLAM path."""
        return self._truth_ids[frame]

    def __len__(self) -> int:
        return len(self.keyframes)


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def sample_prototypes(count: int, dim: int, min_angle: float, rng,
                      max_tries: int = 2000) -> np.ndarray:
    """Unit vectors with pairwise angle >= min_angle, by rejection sampling."""
    cos_limit = math.cos(min_angle)
    out = np.zeros((count, dim))
    for i in range(count):
        for attempt in range(max_tries):
            v = rng.normal(size=dim)
            v /= np.linalg.norm(v)
            if i == 0 or np.max(out[:i] @ v) <= cos_limit:
                out[i] = v
                break
        else:
            raise NumericalError(
                f"could not place {count} prototypes with min angle "
                f"{math.degrees(min_angle):.1f} deg in dim {dim}")
    return out


def generate_world(config: WorldConfig, seed) -> World:
    rng = _rng(seed)
    prototypes = sample_prototypes(config.class_count, config.embedding_dim,
                                   config.min_prototype_angle, rng)
    background = _sample_background(prototypes, config.min_prototype_angle, rng)
    class_ids = np.array([i % config.class_count for i in range(config.object_count)])
    rng.shuffle(class_ids)
    center = config.loop_center
    half = config.extent / 2.0
    objects = []
    for i in range(config.object_count):
        xy = rng.uniform(-half, half, size=2)
        objects.append(WorldObject(i, np.array([center[0] + xy[0], center[1] + xy[1], 0.0]),
                                   int(class_ids[i])))
    return World(config, objects, prototypes, background)


def _sample_background(prototypes: np.ndarray, min_angle: float, rng) -> np.ndarray:
    cos_limit = math.cos(min_angle)
    for _ in range(2000):
        v = rng.normal(size=prototypes.shape[1])
        v /= np.linalg.norm(v)
        if prototypes.shape[0] == 0 or np.max(prototypes @ v) <= cos_limit:
            return v
    raise NumericalError("could not place a background prototype")


def generate_trajectory(loops: int, waypoints_per_loop: int, path_length: float = 21.7,
                        rate_hz: float = 5.0) -> list[tuple[float, Pose3]]:
    """Closed circular circuit, sensor facing the loop center, starting at identity.

    The robot strafes: position runs around the circle while yaw points at the
    center, so the +x sensor axis sweeps the object field every loop.
    """
    if loops < 1 or waypoints_per_loop < 2:
        raise ValueError("need loops >= 1 and waypoints_per_loop >= 2")
    radius = path_length / (2.0 * math.pi * loops)
    total = loops * waypoints_per_loop
    k = np.arange(total)
    theta = 2.0 * math.pi * (k % waypoints_per_loop) / waypoints_per_loop
    positions = np.stack([radius * (1.0 - np.cos(theta)), -radius * np.sin(theta),
                          np.zeros(total)], axis=1)
    quats = np.stack([np.cos(theta / 2), np.zeros(total), np.zeros(total),
                      np.sin(theta / 2)], axis=1)
    return [(ki / rate_hz, Pose3._trusted(quats[i], positions[i]))
            for i, ki in enumerate(k)]


def relative_odometry(trajectory: list[tuple[float, Pose3]]) -> list[Pose3]:
    return [compose(inverse(a), b)
            for (_, a), (_, b) in zip(trajectory, trajectory[1:])]


def corrupt_odometry(relatives: list[Pose3], noise: NoiseModel,
                     seed) -> tuple[list[Pose3], np.ndarray]:
    """Perturb each relative by retract with a Gaussian tangent draw.

    Returns the noisy relatives and the per-axis sigmas (x, y, z, r, p, y)
    shared by every keyframe.
    """
    rng = _rng(seed)
    tsig = noise.tangent_sigmas
    n = len(relatives)
    if n == 0:
        return [], noise.sigmas.copy()
    draws = rng.normal(size=(n, 6)) * tsig
    dq, dt = se3_exp(draws)
    q = np.array([rel.rotation for rel in relatives])
    t = np.array([rel.translation for rel in relatives])
    new_q = quat_normalize(quat_mul(q, dq))
    new_t = t + quat_rotate(q, dt)
    noisy = [Pose3._trusted(new_q[i], new_t[i]) for i in range(n)]
    return noisy, noise.sigmas.copy()


def visible_object_mask(world: World, pose: Pose3) -> np.ndarray:
    """Objects within detection range and field of view of the +x sensor axis."""
    positions = world.positions()
    if len(positions) == 0:
        return np.zeros(0, dtype=bool)
    local_pts = quat_rotate(quat_conj(pose.rotation), positions - pose.translation)
    ranges = np.linalg.norm(local_pts, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_axis = np.where(ranges > 1e-9, local_pts[:, 0] / ranges, -1.0)
    half_fov = world.config.fov / 2.0
    return (ranges > 1e-9) & (ranges <= world.config.detection_range) \
        & (cos_axis >= math.cos(half_fov))


def simulate_detections(world: World, pose: Pose3,
                        rng) -> tuple[list[ObjectDetection], list[int]]:
    """Noisy detections of visible objects plus their true ids (eval only)."""
    cfg = world.config
    rng = _rng(rng)
    mask = visible_object_mask(world, pose)
    visible = [obj for obj, vis in zip(world.objects, mask) if vis]
    if not visible:
        return [], []
    gamma_sigma = max(cfg.sigma_point, cfg.gamma_floor)
    gamma = np.eye(3) * gamma_sigma ** 2
    n = len(visible)
    points = measurement_model_h(pose, np.array([obj.position for obj in visible]))
    if cfg.sigma_point > 0:
        points = points + rng.normal(size=(n, 3)) * cfg.sigma_point
    embeddings = world.prototypes[[obj.class_id for obj in visible]].copy()
    if cfg.sigma_embedding > 0:
        # per-component std sigma/sqrt(D): the perturbation norm is ~sigma,
        # keeping the class gate budget independent of the embedding dim
        per_axis = cfg.sigma_embedding / math.sqrt(cfg.embedding_dim)
        embeddings = embeddings + rng.normal(size=(n, cfg.embedding_dim)) * per_axis
    embeddings /= np.linalg.norm(embeddings, axis=1, keepdims=True)
    detections = [ObjectDetection(embeddings[i], points[i], gamma.copy())
                  for i in range(n)]
    return detections, [obj.id for obj in visible]


def generate_dataset(world: World, trajectory: list[tuple[float, Pose3]],
                     noise: NoiseModel, seed) -> Dataset:
    rng = _rng(seed)
    noisy, sigmas = corrupt_odometry(relative_odometry(trajectory), noise, rng)
    keyframes, truth = [], []
    for k, (t, pose) in enumerate(trajectory):
        dets, ids = simulate_detections(world, pose, rng)
        odom = None if k == 0 else noisy[k - 1]
        keyframes.append(SimKeyframe(t, odom, None if k == 0 else sigmas, dets))
        truth.append(ids)
    return Dataset(keyframes, truth)


def simulate(config: WorldConfig, noise: NoiseModel, seed):
    """One-call builder: (world, ground-truth trajectory, dataset)."""
    rng = _rng(seed)
    world = generate_world(config, rng)
    trajectory = generate_trajectory(config.loops, config.keyframes_per_loop,
                                     config.path_length, config.rate_hz)
    dataset = generate_dataset(world, trajectory, noise, rng)
    return world, trajectory, dataset


def closed_set_dataset(dataset: Dataset, world: World, drop_fraction: float,
                       seed) -> Dataset:
    """Closed-set detector model: one-hot embeddings, unrecognized classes dropped.

    A seeded subset of roughly (1 - drop_fraction) of the classes is
    recognized; detections of other classes never appear, mimicking a detector
    that fails on items outside its taxonomy.
    """
    if not 0.0 <= drop_fraction < 1.0:
        raise ValueError("drop_fraction must be in [0, 1)")
    rng = _rng(seed)
    k = world.config.class_count
    n_recognized = max(1, int(round((1.0 - drop_fraction) * k)))
    recognized = set(rng.permutation(k)[:n_recognized].tolist())
    class_of = {obj.id: obj.class_id for obj in world.objects}

    keyframes, truth = [], []
    for frame, kf in enumerate(dataset.keyframes):
        dets, ids = [], []
        for det, obj_id in zip(kf.detections, dataset.eval_truth_ids(frame)):
            cls = class_of[obj_id]
            if cls not in recognized:
                continue
            dets.append(ObjectDetection(one_hot_embedding(cls, k), det.point,
                                        det.point_covariance, det.area))
            ids.append(obj_id)
        keyframes.append(SimKeyframe(kf.t, kf.odom, kf.odom_sigmas, dets))
        truth.append(ids)
    return Dataset(keyframes, truth)


# ---------------------------------------------------------------------------
# feature-grid synthesis (camera optical convention: z forward, x right, y down)
# ---------------------------------------------------------------------------

@dataclass
class GridConfig:
    height: int = 32
    width: int = 32
    patch_size: int = 8
    fx: float = 160.0
    fy: float = 160.0
    object_size: float = 0.4        # rendered square side (m)
    heads: int = 4
    sigma_feature: float = 0.02
    attention_object: float = 1.0
    attention_background: float = 0.05
    background_depth: float = 8.0
    max_depth: float = 6.0

    @property
    def cx(self) -> float:
        return self.width * self.patch_size / 2.0

    @property
    def cy(self) -> float:
        return self.height * self.patch_size / 2.0


def synthesize_feature_grid(world: World, pose: Pose3, grid: GridConfig,
                            seed) -> tuple[FeatureGrid, dict[int, np.ndarray]]:
    """Render visible objects as patch rectangles; nearer object wins a patch.

    Returns the grid plus ground-truth per-object patch masks. The pose is the
    optical camera pose: points ahead have positive z.
    """
    rng = _rng(seed)
    h, w = grid.height, grid.width
    dim = world.prototypes.shape[1] if len(world.prototypes) else world.config.embedding_dim

    features = world.background_prototype[None, None, :] \
        + rng.normal(size=(h, w, dim)) * grid.sigma_feature
    attention_base = np.full((h, w), grid.attention_background)
    depth = np.full((h, w), grid.background_depth)
    zbuffer = np.full((h, w), np.inf)
    masks: dict[int, np.ndarray] = {}

    order = sorted(world.objects, key=lambda o: o.id)
    for obj in order:
        p_cam = measurement_model_h(pose, obj.position)
        z = p_cam[2]
        if z <= 0.05 or z > grid.max_depth:
            continue
        u = grid.cx + grid.fx * p_cam[0] / z
        v = grid.cy + grid.fy * p_cam[1] / z
        half_u = 0.5 * grid.object_size * grid.fx / z / grid.patch_size
        half_v = 0.5 * grid.object_size * grid.fy / z / grid.patch_size
        pu, pv = u / grid.patch_size, v / grid.patch_size
        c0, c1 = int(round(pu - half_u)), int(round(pu + half_u))
        r0, r1 = int(round(pv - half_v)), int(round(pv + half_v))
        c0, c1 = max(c0, 0), min(c1, w)
        r0, r1 = max(r0, 0), min(r1, h)
        if r1 <= r0 or c1 <= c0:
            continue
        rows, cols = np.meshgrid(np.arange(r0, r1), np.arange(c0, c1), indexing="ij")
        rng_obj = math.sqrt(float(p_cam @ p_cam))
        win = z < zbuffer[rows, cols]
        rows, cols = rows[win], cols[win]
        if rows.size == 0:
            continue
        zbuffer[rows, cols] = z
        proto = world.prototypes[obj.class_id]
        features[rows, cols] = proto[None, :] + rng.normal(size=(rows.size, dim)) * grid.sigma_feature
        attention_base[rows, cols] = grid.attention_object
        depth[rows, cols] = rng_obj
        mask = np.zeros((h, w), dtype=bool)
        mask[rows, cols] = True
        for other in masks.values():
            other[mask] = False
        masks[obj.id] = mask

    attention = np.clip(
        attention_base[None, :, :] + np.abs(rng.normal(size=(grid.heads, h, w))) * 0.01,
        0.0, None)
    masks = {k: m for k, m in masks.items() if m.any()}
    return FeatureGrid(features, attention, depth), masks


# ---------------------------------------------------------------------------
# dataset / world files
# ---------------------------------------------------------------------------

def save_dataset(path, dataset: Dataset) -> None:
    with open(path, "w") as f:
        for frame, kf in enumerate(dataset.keyframes):
            record = {"t": round(kf.t, 6), "odom": None, "detections": []}
            if kf.odom is not None:
                w, x, y, z = kf.odom.rotation
                tx, ty, tz = kf.odom.translation
                record["odom"] = {
                    "rel": [round(float(v), 12) for v in (tx, ty, tz, x, y, z, w)],
                    "sigma": [round(float(v), 12) for v in kf.odom_sigmas],
                }
            for det, tid in zip(kf.detections, dataset.eval_truth_ids(frame)):
                record["detections"].append({
                    "point": [round(float(v), 9) for v in det.point],
                    "cov": [round(float(v), 12) for v in det.point_covariance.ravel()],
                    "embedding": [round(float(v), 9) for v in det.embedding],
                    "truth_id": int(tid),
                })
            f.write(json.dumps(record) + "\n")


def load_dataset(path) -> Dataset:
    keyframes, truth = [], []
    last_t = -math.inf
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                t = float(rec["t"])
                odom = None
                sigmas = None
                if rec.get("odom") is not None:
                    tx, ty, tz, x, y, z, w = rec["odom"]["rel"]
                    odom = Pose3(np.array([w, x, y, z]), np.array([tx, ty, tz]))
                    sigmas = np.asarray(rec["odom"]["sigma"], dtype=float).reshape(6)
                    if not all(math.isfinite(s) and s > 0.0 for s in sigmas.tolist()):
                        raise DataFormatError(f"{path}:{lineno}: odometry sigmas must be "
                                              f"finite and positive, got {sigmas.tolist()}")
                dets, ids = [], []
                for d in rec.get("detections", []):
                    dets.append(ObjectDetection(
                        np.asarray(d["embedding"], dtype=float),
                        np.asarray(d["point"], dtype=float),
                        np.asarray(d["cov"], dtype=float).reshape(3, 3)))
                    ids.append(int(d.get("truth_id", -1)))
            except (KeyError, ValueError, TypeError) as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
            if t <= last_t:
                raise DataFormatError(f"{path}:{lineno}: timestamps must strictly increase")
            last_t = t
            keyframes.append(SimKeyframe(t, odom, sigmas, dets))
            truth.append(ids)
    if not keyframes:
        raise DataFormatError(f"{path}: empty dataset")
    return Dataset(keyframes, truth)


def save_world(path, world: World) -> None:
    cfg = world.config
    payload = {
        "config": {
            "object_count": cfg.object_count,
            "class_count": cfg.class_count,
            "embedding_dim": cfg.embedding_dim,
            "extent": cfg.extent,
            "min_prototype_angle": cfg.min_prototype_angle,
            "detection_range": cfg.detection_range,
            "fov": cfg.fov,
            "sigma_point": cfg.sigma_point,
            "sigma_embedding": cfg.sigma_embedding,
            "loops": cfg.loops,
            "keyframes_per_loop": cfg.keyframes_per_loop,
            "path_length": cfg.path_length,
            "rate_hz": cfg.rate_hz,
            "gamma_floor": cfg.gamma_floor,
        },
        "objects": [{"id": o.id, "position": [round(float(v), 9) for v in o.position],
                     "class_id": o.class_id} for o in world.objects],
        "prototypes": [[round(float(v), 9) for v in row] for row in world.prototypes],
        "background_prototype": [round(float(v), 9) for v in world.background_prototype],
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=1)


def load_world(path) -> World:
    try:
        with open(path) as f:
            payload = json.load(f)
        config = WorldConfig(**payload["config"])
        objects = [WorldObject(o["id"], np.asarray(o["position"], dtype=float), int(o["class_id"]))
                   for o in payload["objects"]]
        prototypes = np.asarray(payload["prototypes"], dtype=float).reshape(-1, config.embedding_dim)
        background = np.asarray(payload["background_prototype"], dtype=float)
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    return World(config, objects, prototypes, background)
