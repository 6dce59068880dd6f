"""Trajectory and map quality metrics.

APE: timestamps are matched nearest-neighbor, the estimated trajectory is
rigidly aligned to ground truth (closed-form least squares, no scale), and
per-pose translation errors are summarized. Map quality: greedy nearest
matching of landmarks to true objects under a distance cap with an
embedding class-consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .association import Landmark, cosine_similarity
from .errors import DataFormatError
from .geometry import Pose3, quat_from_rotation_matrix
from .simworld import World


@dataclass
class ApeStats:
    rmse: float
    mean: float
    median: float
    max: float
    aligned: bool

    def __post_init__(self):
        if not (self.max + 1e-12 >= self.mean >= 0.0):
            raise ValueError("require max >= mean >= 0")


@dataclass
class MapReport:
    estimated_count: int
    true_count: int
    matched: int
    precision: float
    recall: float
    precision_defined: bool = True


def match_by_timestamp(est: list[tuple[float, Pose3]], gt: list[tuple[float, Pose3]],
                       max_dt: float | None = None) -> list[tuple[Pose3, Pose3]]:
    """Nearest-neighbor timestamp pairing within half the median frame period."""
    if not est or not gt:
        raise DataFormatError("empty trajectory")
    gt_times = np.array([t for t, _ in gt])
    if max_dt is None:
        period = np.median(np.diff(gt_times)) if len(gt_times) > 1 else 1.0
        max_dt = 0.5 * float(period)
    pairs = []
    for t, pose in est:
        idx = int(np.argmin(np.abs(gt_times - t)))
        if abs(gt_times[idx] - t) <= max_dt:
            pairs.append((pose, gt[idx][1]))
    return pairs


def align(est: list[tuple[float, Pose3]], gt: list[tuple[float, Pose3]],
          max_dt: float | None = None) -> Pose3:
    """Rigid transform T minimizing sum ||gt_i - T est_i||^2 over matched positions."""
    pairs = match_by_timestamp(est, gt, max_dt)
    if len(pairs) < 3:
        raise DataFormatError(f"need >= 3 correspondences to align, got {len(pairs)}")
    a = np.array([p.translation for p, _ in pairs])   # est
    b = np.array([g.translation for _, g in pairs])   # gt
    mu_a = a.mean(axis=0)
    mu_b = b.mean(axis=0)
    cov = (b - mu_b).T @ (a - mu_a)
    u, _, vt = np.linalg.svd(cov)
    s = np.eye(3)
    if np.linalg.det(u @ vt) < 0:
        s[2, 2] = -1.0
    rot = u @ s @ vt
    t = mu_b - rot @ mu_a
    return Pose3(quat_from_rotation_matrix(rot), t)


def ape(est: list[tuple[float, Pose3]], gt: list[tuple[float, Pose3]],
        do_align: bool = True, max_dt: float | None = None) -> ApeStats:
    """Per-pose translation error statistics, optionally after rigid alignment."""
    transform = align(est, gt, max_dt) if do_align else Pose3.identity()
    pairs = match_by_timestamp(est, gt, max_dt)
    if not pairs:
        raise DataFormatError("no matched timestamps between trajectories")
    errors = np.array([
        np.linalg.norm(transform.apply(p.translation) - g.translation)
        for p, g in pairs])
    return ApeStats(
        rmse=float(np.sqrt(np.mean(errors ** 2))),
        mean=float(np.mean(errors)),
        median=float(np.median(errors)),
        max=float(np.max(errors)),
        aligned=do_align,
    )


def map_report(landmarks: list[Landmark], world: World, match_radius: float = 0.3,
               alpha: float = 0.8, prototypes: np.ndarray | None = None) -> MapReport:
    """Greedy nearest matching of landmarks to true objects.

    A match requires distance < match_radius and embedding consistency with
    the object's class prototype (cosine > alpha). Pass `prototypes` to
    override the world's open-set prototypes, e.g. an identity matrix when the
    map was built from one-hot closed-set embeddings.
    """
    protos = world.prototypes if prototypes is None else np.asarray(prototypes, dtype=float)
    candidates = []
    for li, lm in enumerate(landmarks):
        for obj in world.objects:
            dist = float(np.linalg.norm(lm.position - obj.position))
            if dist >= match_radius:
                continue
            if cosine_similarity(lm.embedding, protos[obj.class_id]) <= alpha:
                continue
            candidates.append((dist, li, obj.id))
    candidates.sort()
    used_lm, used_obj = set(), set()
    matched = 0
    for _, li, oid in candidates:
        if li in used_lm or oid in used_obj:
            continue
        used_lm.add(li)
        used_obj.add(oid)
        matched += 1
    estimated = len(landmarks)
    true_count = len(world.objects)
    precision_defined = estimated > 0
    precision = matched / estimated if precision_defined else 0.0
    recall = matched / true_count if true_count > 0 else 0.0
    return MapReport(estimated, true_count, matched, precision, recall, precision_defined)
