"""Keyframe-driven SLAM: odometry intake, gated association, scheduled optimization.

Each keyframe appends a pose (initialized by composing the odometry), runs
the association module against a frozen snapshot of the current estimates and
marginals, materializes observation factors (plain, mixture, or EM-weighted)
or new landmarks, and triggers the batch optimizer on the configured stride.

The gate reads one matrix: the joint covariance of the latest pose and every
landmark, (6 + 3M) square with the landmarks in id order. Each optimize
replaces it with the graph's ``joint_covariance``. Between optimizations the
whole matrix is propagated, so the chi-square gate stays calibrated as drift
accumulates: odometry maps it through T P T^T + Q with T = blockdiag(Ad, I),
and a new landmark appends its row of cross-covariances with the pose and
every other landmark.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .association import (
    AssociationDecision,
    DAConfig,
    Landmark,
    StateSnapshot,
    associate_frame,
    blocks_new_landmark,
    update_landmark_embedding,
)
from .errors import DataFormatError
from .factors import (
    BetweenFactor,
    MixtureObservationFactor,
    ObservationFactor,
    PriorFactor,
    WeightedObservationFactor,
)
from .geometry import Pose3, compose, inverse, se3_adjoint, skew
from .graph import FactorGraph, LMConfig, OptimizeReport, em_reweight
from .segmentation import ObjectDetection
from .simworld import Dataset

# LM iterations of the solve after a keyframe; ``finalize`` runs to convergence.
INTERMEDIATE_LM_ITERATIONS = 2


@dataclass
class SlamConfig:
    da: DAConfig = field(default_factory=DAConfig)
    prior_sigma: np.ndarray = field(default_factory=lambda: np.full(6, 1e-4))
    optimize_every: int = 1
    log_decisions: bool = False

    def __post_init__(self):
        self.prior_sigma = np.asarray(self.prior_sigma, dtype=float).reshape(6)
        if not np.all(self.prior_sigma > 0) or not np.isfinite(self.prior_sigma).all():
            raise ValueError("prior_sigma must be finite and > 0")
        if self.optimize_every < 1:
            raise ValueError("optimize_every must be >= 1")


@dataclass
class SlamResult:
    trajectory: list[tuple[float, Pose3]]
    landmarks: list[Landmark]
    report: OptimizeReport | None
    decision_log: list[dict]
    dropped_ambiguous: int  # new-landmark decisions dropped as ambiguous


def _sigmas_to_tangent_cov(sigmas_xyzrpy: np.ndarray) -> np.ndarray:
    """(x, y, z, r, p, y) stds -> diagonal covariance in tangent order."""
    s = np.asarray(sigmas_xyzrpy, dtype=float).reshape(6)
    tangent = np.concatenate([s[3:], s[:3]])
    return np.diag(tangent ** 2)


class SlamSystem:
    def __init__(self, config: SlamConfig):
        self.config = config
        self.graph = FactorGraph()
        self.registry: dict[int, Landmark] = {}
        self.frame = 0
        self.next_landmark_id = 0
        self.next_group_id = 0
        self.dropped_ambiguous = 0
        self.decision_log: list[dict] = []
        # joint covariance of the latest pose and the landmarks; landmark ids
        # are dense and issued in order, so landmark j is rows 6 + 3j to 9 + 3j
        self._gate_cov = np.diag(config.prior_sigma ** 2)

    # -- keyframe intake -----------------------------------------------------

    def add_keyframe(self, odometry: tuple[Pose3, np.ndarray] | None,
                     detections: list[ObjectDetection]) -> list[AssociationDecision]:
        """Add keyframe ``frame``: its pose, odometry factor and detections.

        Atomic under malformed input: the odometry factor is built (which
        validates it), and every detection's point, covariance and embedding
        shape are checked, before the graph, the registry or the gate
        covariance change. So a DataFormatError leaves the system as it was
        and the keyframe can be retried.
        """
        k = self.frame
        if k == 0:
            pose = Pose3.identity()
            factor = PriorFactor(0, pose, np.diag(self.config.prior_sigma ** 2))
            gate_cov = self._gate_cov
        else:
            if odometry is None:
                raise DataFormatError(f"keyframe {k} is missing odometry")
            rel, sigmas = odometry
            cov = _sigmas_to_tangent_cov(sigmas)
            factor = BetweenFactor(k - 1, k, rel, cov)
            pose = compose(self.graph.poses[k - 1], rel)
            adj = se3_adjoint(*_inverse_qt(rel))
            gate_cov = self._gate_cov.copy()
            gate_cov[:6] = adj @ gate_cov[:6]
            gate_cov[:, :6] = gate_cov[:, :6] @ adj.T
            gate_cov[:6, :6] += cov
        shapes = {det.embedding.shape for det in detections}
        if self.registry:
            shapes.add(next(iter(self.registry.values())).embedding.shape)
        if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
            raise DataFormatError(f"keyframe {k}: detection embeddings must be 1-D and share "
                                  f"the map's length, got shapes {sorted(shapes)}")
        for det in detections:  # the dataclass fields can be changed after construction
            if not np.all(np.isfinite(det.point)):
                raise DataFormatError(f"keyframe {k}: detection point must be finite")
            if not np.all(np.isfinite(det.point_covariance)):
                raise DataFormatError(f"keyframe {k}: detection covariance must be finite")

        self.graph.add_pose(k, pose)
        self.graph.add_factor(factor)
        self._gate_cov = gate_cov

        decisions = []
        if detections:
            snapshot = self._snapshot(pose)
            decisions = associate_frame(detections, snapshot, self.config.da)
            for det, decision in zip(detections, decisions):
                if decision.is_new and blocks_new_landmark(decision):
                    self.dropped_ambiguous += 1
                    continue
                self._apply_decision(k, pose, det, decision)
            if self.config.log_decisions:
                self.decision_log.append(_decision_record(k, decisions))

        self.frame += 1
        if k > 0 and k % self.config.optimize_every == 0:
            self._optimize(intermediate=True)
        return decisions

    def _snapshot(self, pose: Pose3) -> StateSnapshot:
        return StateSnapshot(pose, self.landmarks(), self._gate_cov)

    def _apply_decision(self, k: int, pose: Pose3, det: ObjectDetection,
                        decision: AssociationDecision) -> None:
        gamma = det.point_covariance
        if decision.is_new:
            j = self.next_landmark_id
            self.next_landmark_id += 1
            world_point = pose.apply(det.point)
            self.graph.add_landmark(j, world_point)
            self.registry[j] = Landmark(j, world_point, det.embedding.copy())
            self.graph.add_factor(ObservationFactor(k, j, det.point, gamma))
            self._init_landmark_covariance(pose, det)
            return
        if decision.kind == "single":
            j = decision.best_landmark
            self.graph.add_factor(ObservationFactor(k, j, det.point, gamma))
        elif decision.kind == "mixture":
            ids = [lm for lm, _ in decision.pairs]
            weights = [w for _, w in decision.pairs]
            self.graph.add_factor(MixtureObservationFactor(k, ids, det.point, gamma, weights))
            j = decision.best_landmark
        else:  # weighted (EM)
            group = self.next_group_id
            self.next_group_id += 1
            cov_by_id = {h.landmark_id: h.innovation_cov for h in decision.hypotheses}
            for lm_id, w in decision.pairs:
                self.graph.add_factor(WeightedObservationFactor(
                    k, lm_id, det.point, gamma, w, group_id=group,
                    innovation_cov=cov_by_id.get(lm_id)))
            j = decision.best_landmark
        update_landmark_embedding(self.registry[j], det.embedding)

    def _init_landmark_covariance(self, pose: Pose3, det: ObjectDetection) -> None:
        rot = pose.rotation_matrix()
        jac = rot @ np.hstack([-skew(det.point), np.eye(3)])  # d(world point)/d(pose tangent)
        cov = self._gate_cov
        cross = jac @ cov[:6]  # with the pose and every landmark
        own = cross[:, :6] @ jac.T + rot @ det.point_covariance @ rot.T
        self._gate_cov = np.block([[cov, cross.T], [cross, own]])

    # -- optimization schedule -------------------------------------------------

    def _optimize(self, intermediate: bool) -> OptimizeReport:
        lm_cfg = LMConfig(max_iterations=INTERMEDIATE_LM_ITERATIONS) if intermediate else LMConfig()
        if self.config.da.strategy == "em":
            report = em_reweight(self.graph, lm_cfg)
        else:
            report = self.graph.optimize(lm_cfg)
        self._refresh_after_optimize()
        return report

    def _refresh_after_optimize(self) -> None:
        for j, lm in self.registry.items():
            lm.position = self.graph.landmarks[j]
        if not self.registry:
            return
        self._gate_cov = self.graph.joint_covariance(self.frame - 1, sorted(self.registry))

    def finalize(self) -> OptimizeReport:
        """Final full optimization; run once after the last keyframe."""
        return self._optimize(intermediate=False)

    # -- outputs ----------------------------------------------------------------

    def trajectory(self, timestamps) -> list[tuple[float, Pose3]]:
        return [(t, self.graph.poses[k]) for k, t in enumerate(timestamps)]

    def landmarks(self) -> list[Landmark]:
        return [self.registry[j] for j in sorted(self.registry)]


def run_slam(dataset: Dataset, config: SlamConfig,
             odometry_only: bool = False) -> SlamResult:
    timestamps = [kf.t for kf in dataset.keyframes]
    if odometry_only:
        poses = [Pose3.identity()]
        for kf in dataset.keyframes[1:]:
            poses.append(compose(poses[-1], kf.odom))
        return SlamResult(list(zip(timestamps, poses)), [], None, [], 0)

    system = SlamSystem(config)
    for k, kf in enumerate(dataset.keyframes):
        odom = None if k == 0 else (kf.odom, kf.odom_sigmas)
        system.add_keyframe(odom, kf.detections)
    report = system.finalize()
    return SlamResult(system.trajectory(timestamps), system.landmarks(), report,
                      system.decision_log, system.dropped_ambiguous)


def _inverse_qt(pose: Pose3):
    inv = inverse(pose)
    return inv.rotation, inv.translation


def _decision_record(frame: int, decisions: list[AssociationDecision]) -> dict:
    out = []
    for d in decisions:
        entry = {"kind": d.kind, "pairs": [[int(i), float(w)] for i, w in d.pairs]}
        entry["hypotheses"] = [
            {"landmark": int(h.landmark_id), "d2": float(h.d_squared),
             "cosine": float(h.cosine), "log_marginal": float(h.log_marginal)}
            for h in d.hypotheses]
        out.append(entry)
    return {"frame": frame, "decisions": out}


# ---------------------------------------------------------------------------
# landmark map file: one JSON object per landmark
# ---------------------------------------------------------------------------

def save_map(path, landmarks: list[Landmark]) -> None:
    with open(path, "w") as f:
        for lm in landmarks:
            f.write(json.dumps({
                "id": int(lm.id),
                "position": [round(float(v), 8) for v in lm.position],
                "embedding": [round(float(v), 8) for v in lm.embedding],
                "count": int(lm.count),
            }) + "\n")


def load_map(path) -> list[Landmark]:
    out = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                landmark = Landmark(int(rec["id"]), np.asarray(rec["position"], dtype=float),
                                    np.asarray(rec["embedding"], dtype=float),
                                    int(rec.get("count", 1)))
            except (KeyError, ValueError, TypeError) as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
            if not (np.isfinite(landmark.position).all() and np.isfinite(landmark.embedding).all()):
                raise DataFormatError(f"{path}:{lineno}: non-finite position or embedding")
            out.append(landmark)
    return out
