"""Open-set data association.

A detection is matched against mapped landmarks in two gates: a class gate on
embedding cosine similarity, then a chi-square gate on the Mahalanobis
distance D^2 of the point innovation under the innovation covariance
C = H Sigma H^T + Gamma, with H the observation Jacobian with respect to
the pose and the landmark and Sigma their joint marginal. The chi-square
gates are the only geometric gates, at two confidences: beta for
association, and the looser NEW_LANDMARK_BETA, inside which a detection that
is not associated lies too close to a landmark to be mapped as a new one.
Hypotheses inside the beta gate are ranked by log marginal likelihood and
resolved per strategy: max-likelihood, max-mixtures, EM weights,
geometric-only, or always-new.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.stats import chi2

from .factors import observation_jacobians, observation_residuals
from .geometry import Pose3
from .graph import pose_landmark_blocks
from .segmentation import ObjectDetection

STRATEGIES = ("ml", "em", "mm", "geometric_only", "new_only")

_LOG_2PI = math.log(2.0 * math.pi)

# The point innovation is 3-D (H is 3 x 9): the degrees of freedom of its
# chi-square gates.
POINT_DOF = 3
# Confidence of the looser instantiation gate: a detection failing the
# association gate but inside this gate of a class-compatible landmark is
# ambiguous and is dropped instead of spawning a duplicate (a beta-level gate
# misses 1 - beta of the true associations by construction).
NEW_LANDMARK_BETA = 0.9999


@dataclass
class Landmark:
    """Mapped object: current point estimate plus its latent class proxy."""

    id: int
    position: np.ndarray
    embedding: np.ndarray
    count: int = 1

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        self.embedding = np.asarray(self.embedding, dtype=float)
        if self.embedding.ndim != 1:
            raise ValueError(f"landmark embedding must be 1-D, got shape {self.embedding.shape}")
        if np.linalg.norm(self.embedding) == 0.0:
            raise ValueError("landmark embedding must be non-zero")
        if self.count < 1:
            raise ValueError("observation count must be >= 1")


@dataclass
class DAConfig:
    """Association settings: the class gate, the association gate's
    confidence and the strategy. beta may not exceed NEW_LANDMARK_BETA, the
    confidence of the looser instantiation gate."""

    alpha: float = 0.8            # cosine class-gate threshold
    beta: float = 0.95            # chi-square confidence
    strategy: str = "ml"

    def __post_init__(self):
        if not -1.0 < self.alpha < 1.0:  # NaN fails too
            raise ValueError("alpha must be in (-1, 1)")
        if not 0.0 < self.beta <= NEW_LANDMARK_BETA:
            raise ValueError(f"beta must be in (0, {NEW_LANDMARK_BETA}]")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")

    @property
    def chi2_threshold(self) -> float:
        return chi_square_quantile(POINT_DOF, self.beta)


@dataclass
class Hypothesis:
    landmark_id: int
    d_squared: float
    cosine: float
    log_marginal: float
    innovation_cov: np.ndarray


@dataclass
class AssociationDecision:
    """Strategy outcome: new landmark, a single match, or a weighted set."""

    kind: str  # "new" | "single" | "mixture" | "weighted"
    pairs: tuple = ()  # ((landmark_id, weight), ...) non-empty unless "new"
    hypotheses: tuple = ()  # the gated hypotheses backing the decision
    # a "new" decision whose detection still lies inside the looser
    # NEW_LANDMARK_BETA gate of a class-compatible landmark: instantiating it
    # would likely duplicate that landmark, so callers drop it instead
    ambiguous: bool = False

    @staticmethod
    def new_landmark() -> "AssociationDecision":
        return AssociationDecision("new")

    @staticmethod
    def single(landmark_id: int, hypotheses: tuple = ()) -> "AssociationDecision":
        return AssociationDecision("single", ((landmark_id, 1.0),), hypotheses)

    @property
    def is_new(self) -> bool:
        return self.kind == "new"

    @property
    def best_landmark(self) -> int:
        """Landmark of the max-weight component (the accepted association)."""
        if self.is_new:
            raise ValueError("new-landmark decision has no landmark")
        return max(self.pairs, key=lambda p: p[1])[0]


@dataclass
class StateSnapshot:
    """Frozen view handed to association: pose, landmarks, joint covariance.

    joint_cov is the (6 + 3n) covariance of the stacked (pose tangent, point
    of each landmark) error, with the landmarks in list order: the graph's
    ``joint_covariance``, landmark cross-covariances included. None is a
    perfectly known state.
    """

    pose: Pose3
    landmarks: list[Landmark]
    joint_cov: np.ndarray | None = None

    def __post_init__(self):
        dim = 6 + 3 * len(self.landmarks)
        if self.joint_cov is not None and np.shape(self.joint_cov) != (dim, dim):
            raise ValueError(f"joint_cov must be {dim}x{dim} for {len(self.landmarks)} landmarks")

    @cached_property
    def _arrays(self):
        """Stacked landmark-side quantities, built once and reused per frame.

        (predicted points, H Sigma H^T blocks, embeddings, their norms);
        everything here is detection-independent.
        """
        n = len(self.landmarks)
        positions = (np.array([lm.position for lm in self.landmarks]).reshape(n, 3)
                     if n else np.zeros((0, 3)))
        embeddings = (np.array([lm.embedding for lm in self.landmarks])
                      if n else np.zeros((0, 1)))
        emb_norms = np.linalg.norm(embeddings, axis=1)
        _, predicted, rot = observation_residuals(self.pose.rotation, self.pose.translation,
                                                  positions, 0.0)
        if self.joint_cov is None:
            return predicted, np.zeros((n, 3, 3)), embeddings, emb_norms
        # each (pose, landmark) block through that pair's observation Jacobian
        joints = pose_landmark_blocks(self.joint_cov)
        j_pose, j_lm = observation_jacobians(rot, predicted)
        h = np.concatenate([j_pose, np.broadcast_to(j_lm, (n, 3, 3))], axis=-1)
        hsh = h @ joints @ np.swapaxes(h, 1, 2)
        return predicted, hsh, embeddings, emb_norms


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm embedding")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


@lru_cache(maxsize=128)
def chi_square_quantile(dof: int, beta: float) -> float:
    """chi-square quantile: CDF(threshold; dof) = beta."""
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must be in (0, 1)")
    return float(chi2.ppf(beta, df=dof))


def _hypotheses(detections: list[ObjectDetection], snapshot: StateSnapshot,
                config: DAConfig) -> list[list[Hypothesis]]:
    """Per detection, a hypothesis for every landmark passing the class gate
    (skipped for geometric_only) with D^2 inside the loose NEW_LANDMARK_BETA
    gate, by log marginal likelihood descending, ties broken by ascending
    landmark id. The callers cut these lists at ``chi2_threshold``. A pair
    whose C is not positive definite (a broken marginal) is gated out without
    touching the others.

    D^2, log det C and the log marginal come from one batch over the
    class-gated pairs; the landmark-side covariance projection comes cached
    from the snapshot.
    """
    out: list[list[Hypothesis]] = [[] for _ in detections]
    if not detections or not snapshot.landmarks:
        return out
    predicted, hsh, embeddings, emb_norms = snapshot._arrays

    det_embs = np.array([d.embedding for d in detections])
    det_norms = np.linalg.norm(det_embs, axis=1)
    if np.any(det_norms == 0.0):
        raise ValueError("cosine similarity undefined for zero-norm embedding")
    cosines = np.clip((det_embs @ embeddings.T)
                      / np.outer(det_norms, emb_norms), -1.0, 1.0)    # (nd, nl)
    keep = (np.full(cosines.shape, True) if config.strategy == "geometric_only"
            else cosines > config.alpha)

    d_idx, l_idx = np.nonzero(keep)
    if d_idx.size == 0:
        return out
    gammas = np.array([d.point_covariance for d in detections])
    c = hsh[l_idx] + gammas[d_idx]
    c = 0.5 * (c + np.swapaxes(c, 1, 2))
    try:
        chol = np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        # a pair whose innovation covariance is not positive definite is gated
        # out; each matrix factors on its own, so the rest are unchanged
        ok = np.array([_factors(m) for m in c], dtype=bool)
        d_idx, l_idx, c = d_idx[ok], l_idx[ok], c[ok]
        if d_idx.size == 0:
            return out
        chol = np.linalg.cholesky(c)
    points = np.array([d.point for d in detections])
    innovations = predicted[l_idx] - points[d_idx]
    y = np.linalg.solve(chol, innovations[..., None])[..., 0]
    d2 = np.einsum("mk,mk->m", y, y)
    logdet = 2.0 * np.log(np.einsum("mkk->mk", chol)).sum(axis=1)
    log_marginal = -0.5 * d2 - 0.5 * (POINT_DOF * _LOG_2PI + logdet)
    landmarks = snapshot.landmarks
    for m in np.flatnonzero(d2 < chi_square_quantile(POINT_DOF, NEW_LANDMARK_BETA)).tolist():
        d, l = int(d_idx[m]), int(l_idx[m])
        out[d].append(Hypothesis(landmarks[l].id, float(d2[m]), float(cosines[d, l]),
                                 float(log_marginal[m]), c[m]))
    for hypotheses in out:
        hypotheses.sort(key=lambda h: (-h.log_marginal, h.landmark_id))
    return out


def _factors(cov: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return False
    return True


def generate_hypotheses(detection: ObjectDetection, snapshot: StateSnapshot,
                        config: DAConfig) -> list[Hypothesis]:
    """Gated, ranked association hypotheses for one detection.

    Gates: cosine > alpha (skipped for geometric_only), D^2 < chi-square
    threshold. Sorted by log marginal likelihood descending, ties broken by
    ascending landmark id.
    """
    threshold = config.chi2_threshold
    return [h for h in _hypotheses([detection], snapshot, config)[0] if h.d_squared < threshold]


def blocks_new_landmark(decision: AssociationDecision) -> bool:
    """True when instantiating the detection behind a new-landmark decision
    would likely duplicate a landmark: ``associate_frame`` found a same-class
    landmark inside the looser NEW_LANDMARK_BETA gate, so the measurement is
    ambiguous and is discarded rather than mapped."""
    return decision.ambiguous


def decide(hypotheses: list[Hypothesis], config: DAConfig) -> AssociationDecision:
    """Resolve ranked hypotheses under the configured strategy."""
    if config.strategy == "new_only" or not hypotheses:
        return AssociationDecision.new_landmark()
    if config.strategy in ("ml", "geometric_only"):
        return AssociationDecision.single(hypotheses[0].landmark_id, tuple(hypotheses))
    weights = _normalized_weights([h.log_marginal for h in hypotheses])
    pairs = tuple((h.landmark_id, w) for h, w in zip(hypotheses, weights))
    kind = "mixture" if config.strategy == "mm" else "weighted"
    return AssociationDecision(kind, pairs, tuple(hypotheses))


def _normalized_weights(log_weights) -> np.ndarray:
    arr = np.asarray(log_weights, dtype=float)
    arr = np.exp(arr - arr.max())
    return arr / arr.sum()


def associate_frame(detections: list[ObjectDetection], snapshot: StateSnapshot,
                    config: DAConfig) -> list[AssociationDecision]:
    """Associate a frame's detections greedily with landmark exclusivity.

    Detections are processed in order of their best hypothesis likelihood; a
    landmark claimed by one detection (single match or max-weight component)
    is removed from the later detections' hypothesis lists. A detection that
    ends up new is marked ambiguous when any landmark past the class gate,
    claimed or not, lies inside the NEW_LANDMARK_BETA gate; both cuts come
    from one list per detection.
    """
    threshold = config.chi2_threshold
    near = _hypotheses(detections, snapshot, config)
    all_hyps = [[h for h in hyps if h.d_squared < threshold] for hyps in near]
    order = sorted(
        range(len(detections)),
        key=lambda i: (-all_hyps[i][0].log_marginal if all_hyps[i] else math.inf, i),
    )
    claimed: set[int] = set()
    decisions: list[AssociationDecision | None] = [None] * len(detections)
    for i in order:
        remaining = [h for h in all_hyps[i] if h.landmark_id not in claimed]
        decision = decide(remaining, config)
        if decision.is_new and near[i]:
            decision = AssociationDecision("new", ambiguous=True)
        decisions[i] = decision
        if not decision.is_new:
            claimed.add(decision.best_landmark)
    return decisions


def update_landmark_embedding(landmark: Landmark, embedding: np.ndarray) -> Landmark:
    """Fold an accepted observation into the landmark's running-mean embedding."""
    embedding = np.asarray(embedding, dtype=float)
    n = landmark.count
    landmark.embedding = (landmark.embedding * n + embedding) / (n + 1)
    landmark.count = n + 1
    return landmark


def one_hot_embedding(class_id: int, num_classes: int) -> np.ndarray:
    out = np.zeros(num_classes)
    out[class_id] = 1.0
    return out
