"""Open-set data association.

A detection is matched against mapped landmarks in two gates: a class gate on
embedding cosine similarity, then a chi-square gate on the Mahalanobis
distance of the point innovation under the innovation covariance
C = H Sigma H^T + Gamma, with H the observation Jacobian with respect to
the pose and the landmark and Sigma their joint marginal.
Surviving hypotheses are ranked by log marginal likelihood and resolved per
strategy: max-likelihood, max-mixtures, EM weights, geometric-only, or
always-new.
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
        if np.linalg.norm(self.embedding) == 0.0:
            raise ValueError("landmark embedding must be non-zero")
        if self.count < 1:
            raise ValueError("observation count must be >= 1")


@dataclass
class DAConfig:
    alpha: float = 0.8            # cosine class-gate threshold
    beta: float = 0.95            # chi-square confidence
    gate_radius: float = 5.0      # meters, geometric pre-filter
    strategy: str = "ml"
    # Looser instantiation gate: a detection failing the association gate but
    # within this gate of a same-class landmark is ambiguous and is dropped
    # instead of spawning a duplicate (a beta-level gate misses 1-beta of the
    # true associations by construction).
    new_landmark_beta: float = 0.9999

    def __post_init__(self):
        if not -1.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (-1, 1)")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must be in (0, 1)")
        if not self.gate_radius > 0.0:  # NaN fails too
            raise ValueError("gate_radius must be > 0")
        if not self.beta <= self.new_landmark_beta < 1.0:
            raise ValueError("new_landmark_beta must be in [beta, 1)")
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
    # a "new" decision whose detection still lies within the looser
    # new_landmark_beta gate of a class-compatible landmark: instantiating it
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
        q = self.pose.rotation
        _, predicted = observation_residuals(q, self.pose.translation, positions, 0.0)
        if self.joint_cov is None:
            return predicted, np.zeros((n, 3, 3)), embeddings, emb_norms
        # each (pose, landmark) block through that pair's observation Jacobian
        joints = pose_landmark_blocks(self.joint_cov)
        j_pose, j_lm = observation_jacobians(q, predicted)
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


def _log_marginal_from_logdet(d_squared: float, logdet: float) -> float:
    return -0.5 * d_squared - 0.5 * (POINT_DOF * _LOG_2PI + logdet)


def _evaluate_frame(detections: list[ObjectDetection], snapshot: StateSnapshot,
                    config: DAConfig) -> list[list[tuple[int, float, float, np.ndarray, float]]]:
    """Per detection: (landmark id, cosine, D^2, C, log det C) for every
    landmark passing the radius and class gates; the chi-square cut is applied
    by the callers. A pair whose C is not positive definite (a broken
    marginal) is gated out without touching the others.

    Evaluates the whole detection x landmark grid in one batch; the
    landmark-side covariance projection comes cached from the snapshot.
    """
    nd = len(detections)
    nl = len(snapshot.landmarks)
    if nd == 0 or nl == 0:
        return [[] for _ in range(nd)]
    predicted, hsh, embeddings, emb_norms = snapshot._arrays

    points = np.array([d.point for d in detections])
    det_embs = np.array([d.embedding for d in detections])
    det_norms = np.linalg.norm(det_embs, axis=1)
    if np.any(det_norms == 0.0):
        raise ValueError("cosine similarity undefined for zero-norm embedding")

    innovations = predicted[None, :, :] - points[:, None, :]          # (nd, nl, 3)
    keep = np.einsum("dlk,dlk->dl", innovations, innovations) <= config.gate_radius ** 2
    cosines = np.clip((det_embs @ embeddings.T)
                      / np.outer(det_norms, emb_norms), -1.0, 1.0)    # (nd, nl)
    if config.strategy != "geometric_only":
        keep &= cosines > config.alpha

    d_idx, l_idx = np.nonzero(keep)
    out: list[list[tuple[int, float, float, np.ndarray, float]]] = [[] for _ in range(nd)]
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
    y = np.linalg.solve(chol, innovations[d_idx, l_idx][..., None])[..., 0]
    d2 = np.einsum("mk,mk->m", y, y)
    logdet = 2.0 * np.log(np.einsum("mkk->mk", chol)).sum(axis=1)
    landmarks = snapshot.landmarks
    for m in range(d_idx.size):
        d, l = int(d_idx[m]), int(l_idx[m])
        out[d].append((landmarks[l].id, float(cosines[d, l]), float(d2[m]), c[m],
                       float(logdet[m])))
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

    Gates: predicted distance <= gate_radius, cosine > alpha (skipped for
    geometric_only), D^2 < chi-square threshold. Sorted by log marginal
    likelihood descending, ties broken by ascending landmark id.
    """
    return _ranked(_evaluate_frame([detection], snapshot, config)[0], config.chi2_threshold)


def _ranked(evaluated, threshold: float) -> list[Hypothesis]:
    """The hypotheses among one detection's ``_evaluate_frame`` pairs with
    D^2 < threshold, by log marginal likelihood descending, ties broken by
    ascending landmark id."""
    hypotheses = [Hypothesis(lm_id, d2, cos, _log_marginal_from_logdet(d2, logdet), c)
                  for lm_id, cos, d2, c, logdet in evaluated if d2 < threshold]
    hypotheses.sort(key=lambda h: (-h.log_marginal, h.landmark_id))
    return hypotheses


def blocks_new_landmark(decision: AssociationDecision) -> bool:
    """True when instantiating the detection behind a new-landmark decision
    would likely duplicate a landmark: ``associate_frame`` found a same-class
    landmark within the looser new_landmark_beta gate, so the measurement is
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
    ends up new is marked ambiguous when any gated landmark, claimed or not,
    lies within the new_landmark_beta gate; both cuts come from one pass.
    """
    threshold = config.chi2_threshold
    loose = chi_square_quantile(POINT_DOF, config.new_landmark_beta)
    all_hyps, near = [], []
    for evaluated in _evaluate_frame(detections, snapshot, config):
        all_hyps.append(_ranked(evaluated, threshold))
        near.append(any(d2 < loose for _, _, d2, _, _ in evaluated))
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
