"""Factor types for the pose/landmark graph.

The batched residual/Jacobian kernels below are what the optimizer runs: the
graph stores each factor type as stacked arrays and calls them once per type
(see graph._BatchedFactors), and they are the only implementation of the
factor model in the library. The factor classes hold one measurement each,
validated at construction, and are what callers add to a graph. The tests'
per-factor reference (tests/oracles.py: factor_error, factor_linearize)
applies the same kernels to one factor at a time.

Residual conventions (rotation-first right-perturbation tangents):
  prior        r = Log(mean^-1 x)
  between      r = Log(z^-1 x_i^-1 x_j)
  observation  r = h(x, l) - z           (sensor-frame point innovation)
Whitened errors are 0.5 ||W r||^2 with W^T W = Sigma^-1; a weighted
observation scales the error by its weight, and a mixture observation takes
the min over components of (cost - log weight).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataFormatError, NumericalError
from .geometry import (
    Pose3,
    quat_conj,
    quat_mul,
    quat_rotate,
    quat_to_matrix,
    se3_adjoint,
    se3_jr_inv,
    se3_log,
    skew,
)


_SQRT_INFO_CACHE: dict[bytes, np.ndarray] = {}


def _finite(name: str, value) -> np.ndarray:
    """``value`` as a float array; DataFormatError if any entry is NaN or Inf."""
    value = np.asarray(value, dtype=float)
    if not all(map(math.isfinite, value.ravel().tolist())):  # a fifth of np.isfinite's cost
        raise DataFormatError(f"{name} must be finite")
    return value


def sqrt_information(sigma: np.ndarray) -> np.ndarray:
    """Lower-triangular W with W^T W = Sigma^-1 (whitening matrix).

    Cached by value: measurement and odometry covariances repeat across
    thousands of factors in a run.
    """
    sigma = np.ascontiguousarray(_finite("covariance", sigma))
    key = sigma.tobytes()
    cached = _SQRT_INFO_CACHE.get(key)
    if cached is not None:
        return cached
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance must be SPD") from exc
    out = np.linalg.inv(chol)
    if len(_SQRT_INFO_CACHE) < 4096:
        _SQRT_INFO_CACHE[key] = out
    return out


# ---------------------------------------------------------------------------
# batched residual/Jacobian kernels; all quaternion/translation args stack
# over the leading axis
# ---------------------------------------------------------------------------

def relative_pose(qi, ti, qj, tj):
    """inv(T_i) * T_j on stacked arrays."""
    qi_inv = quat_conj(qi)
    q = quat_mul(qi_inv, qj)
    t = quat_rotate(qi_inv, tj - ti)
    return q, t


def pose_residuals(ref_q, ref_t, q, t):
    """Log(ref^-1 T), batched."""
    rq, rt = relative_pose(ref_q, ref_t, q, t)
    return se3_log(rq, rt)


def between_jacobians(residual, q_ij, t_ij):
    """(J_i, J_j) of the between residual w.r.t. right perturbations."""
    jr = se3_jr_inv(residual)
    q_inv = quat_conj(q_ij)
    t_inv = -quat_rotate(q_inv, t_ij)
    j_i = -jr @ se3_adjoint(q_inv, t_inv)
    return j_i, jr


def observation_residuals(qp, tp, lm, z):
    """(residual, predicted point) of the sensor-frame point observation."""
    h = quat_rotate(quat_conj(qp), lm - tp)
    return h - z, h


def observation_jacobians(qp, predicted):
    """(J_pose 3x6, J_landmark 3x3), batched."""
    n = predicted.shape[:-1]
    j_pose = np.concatenate([skew(predicted), -np.broadcast_to(np.eye(3), n + (3, 3))], axis=-1)
    j_lm = np.swapaxes(quat_to_matrix(qp), -1, -2)
    return j_pose, j_lm


# ---------------------------------------------------------------------------
# factor classes
# ---------------------------------------------------------------------------

class PriorFactor:
    def __init__(self, pose_key: int, mean: Pose3, sigma: np.ndarray):
        self.pose_key = pose_key
        self.mean = mean
        self.sigma = np.asarray(sigma, dtype=float).reshape(6, 6)
        self.sqrt_info = sqrt_information(self.sigma)

    def keys(self):
        return [("x", self.pose_key)]


class BetweenFactor:
    def __init__(self, key_i: int, key_j: int, relative: Pose3, sigma: np.ndarray):
        self.key_i = key_i
        self.key_j = key_j
        self.relative = relative
        self.sigma = np.asarray(sigma, dtype=float).reshape(6, 6)
        self.sqrt_info = sqrt_information(self.sigma)

    def keys(self):
        return [("x", self.key_i), ("x", self.key_j)]


class ObservationFactor:
    def __init__(self, pose_key: int, landmark_key: int, point: np.ndarray, gamma: np.ndarray):
        self.pose_key = pose_key
        self.landmark_key = landmark_key
        self.point = _finite("observation point", point).reshape(3)
        self.gamma = np.asarray(gamma, dtype=float).reshape(3, 3)
        self.sqrt_info = sqrt_information(self.gamma)

    def keys(self):
        return [("x", self.pose_key), ("l", self.landmark_key)]


class WeightedObservationFactor(ObservationFactor):
    """Observation scaled by an association weight w in (0, 1] (EM soft factor)."""

    def __init__(self, pose_key, landmark_key, point, gamma, weight: float,
                 group_id: int | None = None, innovation_cov: np.ndarray | None = None):
        super().__init__(pose_key, landmark_key, point, gamma)
        if not 0.0 < _finite("weight", weight) <= 1.0:
            raise ValueError("weight must be in (0, 1]")
        self._weight = float(weight)
        self.group_id = group_id
        self.innovation_cov = (None if innovation_cov is None
                               else _finite("innovation_cov", innovation_cov))

    @property
    def weight(self) -> float:
        """Read-only: once the factor is in a graph, ``em_reweight`` sets it
        together with the graph's own copy."""
        return self._weight


class MixtureObservationFactor:
    """Max-mixture over candidate landmarks: error = min_j (cost_j - log w_j)."""

    def __init__(self, pose_key: int, landmark_keys, point, gamma, weights):
        self.pose_key = pose_key
        self.landmark_keys = list(landmark_keys)
        self.point = _finite("observation point", point).reshape(3)
        self.gamma = np.asarray(gamma, dtype=float).reshape(3, 3)
        self.sqrt_info = sqrt_information(self.gamma)
        weights = _finite("component weights", weights)
        if len(weights) != len(self.landmark_keys) or len(weights) == 0:
            raise ValueError("one weight per component required")
        if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("component weights must be positive and normalized")
        self.weights = weights
        self.neg_log_weights = -np.log(weights)

    def keys(self):
        return [("x", self.pose_key)] + [("l", k) for k in self.landmark_keys]
