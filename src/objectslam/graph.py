"""Factor-graph MAP estimation.

Batch Levenberg-Marquardt on the manifold (right-perturbation retract),
warm-started from the current estimates. Linearization is vectorized per
factor type and scatters each factor's J^T J and J^T r blocks straight into
the Gauss-Newton system, ordered poses first:

    [[A,   B],   [dx_pose,      = -grad
     [B^T, C]] .  dx_landmark]

A (6N x 6N) couples poses only through between factors, so it is banded
with 6(w + 1) stored rows, where w is the largest pose-slot gap of any
between: 12 rows for an odometry chain. B (6N x 3M) is the dense border to
the few landmarks and C (3M x 3M) their block. The system is solved with a
banded Cholesky of A and a dense Cholesky of the landmark Schur complement
S = C - B^T A^-1 B (Triggs et al., "Bundle Adjustment - A Modern
Synthesis", 2000); joint marginals are columns of the inverse from the same
factor. A loop closure between poses w slots apart is exact but widens the
band: storage grows as (6w + 6) * 6N and the factorization as (6w + 6)^2 * 6N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dtbtrs

from .errors import NumericalError
from .factors import (
    BetweenFactor,
    MixtureObservationFactor,
    ObservationFactor,
    PriorFactor,
    WeightedObservationFactor,
    between_jacobians,
    observation_jacobians,
    observation_residuals,
    pose_residuals,
    relative_pose,
)
from .geometry import Pose3, quat_mul, quat_normalize, quat_rotate, se3_exp, se3_jr_inv

@dataclass
class Values:
    poses: dict
    landmarks: dict


@dataclass
class LMConfig:
    max_iterations: int = 100
    rel_decrease_tol: float = 1e-9
    gradient_tol: float = 1e-8
    init_lambda: float = 1e-6
    lambda_scale: float = 10.0
    max_lambda: float = 1e10


@dataclass
class OptimizeReport:
    initial_error: float
    final_error: float
    iterations: int
    converged: bool
    gradient_norm: float


class FactorGraph:
    """Pose and landmark variables plus the factor list, with current estimates."""

    def __init__(self):
        self.poses: dict[int, Pose3] = {}
        self.landmarks: dict[int, np.ndarray] = {}
        self.factors: list = []
        self.weights_version = 0
        self._batch_cache = None
        self._marginal_factor = None  # (factor, batch) reusable after an accepted LM step
        self._uf_parent: dict = {}
        self._uf_anchored: set = set()
        self._num_priors = 0

    # -- construction -------------------------------------------------------

    def add_pose(self, key: int, pose: Pose3) -> None:
        if key in self.poses:
            raise ValueError(f"pose {key} already exists")
        self.poses[key] = pose
        self._marginal_factor = None

    def add_landmark(self, key: int, point: np.ndarray) -> None:
        if key in self.landmarks:
            raise ValueError(f"landmark {key} already exists")
        self.landmarks[key] = np.asarray(point, dtype=float).reshape(3).copy()
        self._marginal_factor = None

    def add_factor(self, factor) -> None:
        keys = factor.keys()
        for kind, key in keys:
            store = self.poses if kind == "x" else self.landmarks
            if key not in store:
                raise ValueError(f"factor references missing variable {kind}{key}")
        self.factors.append(factor)
        for other in keys[1:]:
            self._uf_union(keys[0], other)
        if isinstance(factor, PriorFactor):
            self._num_priors += 1
            self._uf_anchored.add(self._uf_find(keys[0]))

    def _uf_find(self, a):
        parent = self._uf_parent
        root = a
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(a, a) != a:
            parent[a], a = root, parent[a]
        return root

    def _uf_union(self, a, b) -> None:
        ra, rb = self._uf_find(a), self._uf_find(b)
        if ra == rb:
            return
        self._uf_parent[ra] = rb
        if ra in self._uf_anchored:
            self._uf_anchored.discard(ra)
            self._uf_anchored.add(rb)

    def values(self) -> Values:
        return Values(self.poses, self.landmarks)

    def error(self) -> float:
        values = self.values()
        return float(sum(f.error(values) for f in self.factors))

    def bump_weights_version(self) -> None:
        self.weights_version += 1

    def summary(self) -> dict:
        counts: dict[str, int] = {}
        for f in self.factors:
            counts[type(f).__name__] = counts.get(type(f).__name__, 0) + 1
        return {
            "num_poses": len(self.poses),
            "num_landmarks": len(self.landmarks),
            "factor_counts": counts,
            "total_error": self.error(),
        }

    # -- optimization -------------------------------------------------------

    def optimize(self, config: LMConfig | None = None) -> OptimizeReport:
        config = config or LMConfig()
        self._validate_gauge()
        batch = self._batched()
        state = batch.gather(self)
        err, system = batch.linearize(state)
        gnorm = float(np.linalg.norm(system.grad))
        initial = err
        lam = config.init_lambda
        iterations = 0
        converged = gnorm < config.gradient_tol

        while not converged and iterations < config.max_iterations:
            stepped = False
            while lam <= config.max_lambda:
                factor = self._factorize(system, lam)
                delta = factor.solve(-system.grad)
                candidate = batch.retract(state, delta)
                cand_err = batch.error_only(candidate)
                if cand_err <= err and np.isfinite(cand_err):
                    rel = (err - cand_err) / max(err, 1e-300)
                    state = candidate
                    err = cand_err
                    iterations += 1
                    stepped = True
                    self._marginal_factor = (factor, batch)
                    lam = max(lam * 0.1, 1e-12)
                    _, system = batch.linearize(state)
                    gnorm = float(np.linalg.norm(system.grad))
                    if gnorm < config.gradient_tol or rel < config.rel_decrease_tol:
                        converged = True
                    break
                lam *= config.lambda_scale
            if not stepped:
                break

        batch.scatter(self, state)
        return OptimizeReport(initial, err, iterations, converged, gnorm)

    @staticmethod
    def _factorize(system: "NormalEquations", lam: float = 0.0) -> "SchurFactor":
        """Factor the system, adding lam * max(diag, 1e-12) to the diagonals of A and C."""
        band, landmark = system.band.copy(), system.landmark
        if lam:
            band[0] += lam * np.maximum(band[0], 1e-12)
            landmark = landmark + np.diag(lam * np.maximum(np.diag(landmark), 1e-12))
        try:
            band = sla.cholesky_banded(band, lower=True, overwrite_ab=True,
                                       check_finite=False)
            border = _band_solve(band, system.border, "N")
            schur = sla.cholesky(landmark - border.T @ border, lower=True,
                                 overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"information matrix is not positive definite: {exc}") from exc
        return SchurFactor(band, border, schur)

    def _validate_gauge(self) -> None:
        """Require a prior and full connectivity to an anchored component."""
        if self._num_priors == 0:
            raise NumericalError("graph has no prior: gauge freedom")
        anchored = {self._uf_find(root) for root in self._uf_anchored}
        for key in self.poses:
            if self._uf_find(("x", key)) not in anchored:
                raise NumericalError(f"pose {key} is not connected to a prior")
        for key in self.landmarks:
            if self._uf_find(("l", key)) not in anchored:
                raise NumericalError(f"landmark {key} is not connected to a prior")

    def _batched(self) -> "_BatchedFactors":
        signature = (len(self.factors), self.weights_version)
        if self._batch_cache is None or self._batch_cache.signature != signature:
            self._batch_cache = _BatchedFactors(self, signature)
        return self._batch_cache

    # -- covariance recovery -------------------------------------------------

    def _information_factorization(self):
        batch = self._batched()
        _, system = batch.linearize(batch.gather(self))
        return self._factorize(system), batch

    def joint_marginal(self, pose_key: int, landmark_key: int) -> np.ndarray:
        """Exact 9x9 joint (pose, landmark) covariance from the GN information."""
        return self.joint_marginals(pose_key, [landmark_key])[landmark_key]

    def joint_marginals(self, pose_key: int, landmark_keys) -> dict[int, np.ndarray]:
        """Joint 9x9 covariances of (pose, landmark) for several landmarks at once."""
        if pose_key not in self.poses:
            raise ValueError(f"pose {pose_key} not in graph")
        for k in landmark_keys:
            if k not in self.landmarks:
                raise ValueError(f"landmark {k} not in graph")
        factor, batch = self._information_factorization()
        return _joint_blocks(factor, batch, pose_key, landmark_keys)

    def pose_marginal(self, pose_key: int) -> np.ndarray:
        if pose_key not in self.poses:
            raise ValueError(f"pose {pose_key} not in graph")
        factor, batch = self._information_factorization()
        cols = batch.pose_columns(pose_key)
        rhs = np.zeros((batch.num_cols, 6))
        rhs[cols, np.arange(6)] = 1.0
        sol = factor.solve(rhs)
        block = sol[cols, :]
        return 0.5 * (block + block.T)

    def fast_joint_marginals(self, pose_key: int, landmark_keys) -> dict[int, np.ndarray]:
        """Like joint_marginals but reusing the last accepted LM factorization.

        The reused system is damped by the final trust-region lambda and is one
        linearization behind the final state: adequate for association gating,
        not for reporting. Falls back to the exact path when unavailable.
        """
        if self._marginal_factor is None:
            return self.joint_marginals(pose_key, landmark_keys)
        factor, batch = self._marginal_factor
        return _joint_blocks(factor, batch, pose_key, landmark_keys)


def _joint_blocks(factor, batch, pose_key, landmark_keys) -> dict[int, np.ndarray]:
    pose_cols = batch.pose_columns(pose_key)
    lm_cols = [batch.landmark_columns(k) for k in landmark_keys]
    cols = np.concatenate([pose_cols] + lm_cols) if lm_cols else pose_cols
    rhs = np.zeros((batch.num_cols, len(cols)))
    rhs[cols, np.arange(len(cols))] = 1.0
    sol = factor.solve(rhs)
    out = {}
    for i, key in enumerate(landmark_keys):
        idx = np.concatenate([pose_cols, lm_cols[i]])
        sel = np.concatenate([np.arange(6), 6 + 3 * i + np.arange(3)])
        block = sol[np.ix_(idx, sel)]
        out[key] = 0.5 * (block + block.T)
    return out


@dataclass
class NormalEquations:
    """Gauss-Newton system [[A, B], [B^T, C]] dx = -grad, poses first.

    ``band`` holds the lower band of A in LAPACK storage,
    ``band[r - c, c] = A[r, c]`` for 0 <= r - c < len(band).
    """

    band: np.ndarray      # (6(w + 1), 6N)
    border: np.ndarray    # B, (6N, 3M)
    landmark: np.ndarray  # C, (3M, 3M)
    grad: np.ndarray      # J^T r, (6N + 3M,)


class SchurFactor:
    """Cholesky factor of a NormalEquations system,

        [[A, B], [B^T, C]] = L L^T,  L = [[L_A, 0], [W^T, L_S]],

    with A = L_A L_A^T, W = L_A^-1 B and S = C - W^T W = L_S L_S^T.
    """

    def __init__(self, band: np.ndarray, border: np.ndarray, schur: np.ndarray):
        self.band = band      # L_A in the lower band storage of NormalEquations
        self.border = border  # W, dense
        self.schur = schur    # L_S, dense lower

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        n_pose = self.band.shape[1]
        y = _band_solve(self.band, rhs[:n_pose], "N")
        rhs_lm = rhs[n_pose:]
        if not len(rhs_lm):
            return _band_solve(self.band, y, "T")
        lm = sla.cho_solve((self.schur, True), rhs_lm - self.border.T @ y,
                           check_finite=False)
        return np.concatenate([_band_solve(self.band, y - self.border @ lm, "T"), lm])

    @cached_property
    def L(self) -> sp.spmatrix:
        """L as one sparse matrix, built on first use; for fill-in counts."""
        n_pose, width = self.band.shape[1], len(self.band)
        l_pose = sp.dia_matrix((self.band, -np.arange(width)), shape=(n_pose, n_pose))
        if not len(self.schur):
            return l_pose
        return sp.bmat([[l_pose, None],
                        [sp.csr_matrix(self.border.T), sp.csr_matrix(self.schur)]])

    @property
    def U(self) -> sp.spmatrix:
        return self.L.T


def _band_solve(band: np.ndarray, rhs: np.ndarray, trans: str) -> np.ndarray:
    """L_A^-1 rhs (trans "N") or L_A^-T rhs (trans "T") for a lower band factor."""
    if not rhs.size:  # the dtbtrs wrapper corrupts the heap when nrhs is 0
        return rhs.copy()
    out, info = dtbtrs(band, rhs, uplo="L", trans=trans)
    if info:
        raise NumericalError(f"banded triangular solve failed (info {info})")
    return out


class _BatchedFactors:
    """Struct-of-arrays view of the factor list for vectorized linearization."""

    def __init__(self, graph: FactorGraph, signature):
        self.signature = signature
        self.pose_ids = sorted(graph.poses)
        self.lm_ids = sorted(graph.landmarks)
        self.pose_slot = {k: i for i, k in enumerate(self.pose_ids)}
        self.lm_slot = {k: i for i, k in enumerate(self.lm_ids)}
        self.num_poses = len(self.pose_ids)
        self.num_lms = len(self.lm_ids)
        self.num_cols = 6 * self.num_poses + 3 * self.num_lms

        priors, betweens, observations, mixtures = [], [], [], []
        for f in graph.factors:
            if isinstance(f, PriorFactor):
                priors.append(f)
            elif isinstance(f, BetweenFactor):
                betweens.append(f)
            elif isinstance(f, MixtureObservationFactor):
                mixtures.append(f)
            elif isinstance(f, ObservationFactor):  # includes weighted
                observations.append(f)
            else:
                raise TypeError(f"unsupported factor type {type(f).__name__}")

        self.pr_slot = np.array([self.pose_slot[f.pose_key] for f in priors], dtype=int)
        self.pr_q = np.array([f.mean.rotation for f in priors]).reshape(-1, 4)
        self.pr_t = np.array([f.mean.translation for f in priors]).reshape(-1, 3)
        self.pr_w = np.array([f.sqrt_info for f in priors]).reshape(-1, 6, 6)

        self.bt_i = np.array([self.pose_slot[f.key_i] for f in betweens], dtype=int)
        self.bt_j = np.array([self.pose_slot[f.key_j] for f in betweens], dtype=int)
        self.bt_q = np.array([f.relative.rotation for f in betweens]).reshape(-1, 4)
        self.bt_t = np.array([f.relative.translation for f in betweens]).reshape(-1, 3)
        self.bt_w = np.array([f.sqrt_info for f in betweens]).reshape(-1, 6, 6)

        self.ob_p = np.array([self.pose_slot[f.pose_key] for f in observations], dtype=int)
        self.ob_l = np.array([self.lm_slot[f.landmark_key] for f in observations], dtype=int)
        self.ob_z = np.array([f.point for f in observations]).reshape(-1, 3)
        self.ob_w = np.array([f.sqrt_info for f in observations]).reshape(-1, 3, 3)
        self.ob_s = np.sqrt(np.array(
            [getattr(f, "weight", 1.0) for f in observations], dtype=float))

        comp_p, comp_l, comp_z, comp_w, comp_nlw, sizes = [], [], [], [], [], []
        for f in mixtures:
            for idx, key in enumerate(f.landmark_keys):
                comp_p.append(self.pose_slot[f.pose_key])
                comp_l.append(self.lm_slot[key])
                comp_z.append(f.point)
                comp_w.append(f.sqrt_info)
                comp_nlw.append(f.neg_log_weights[idx])
            sizes.append(len(f.landmark_keys))
        self.mx_p = np.array(comp_p, dtype=int)
        self.mx_l = np.array(comp_l, dtype=int)
        self.mx_z = np.array(comp_z, dtype=float).reshape(-1, 3)
        self.mx_w = np.array(comp_w, dtype=float).reshape(-1, 3, 3)
        self.mx_nlw = np.array(comp_nlw, dtype=float)
        self.mx_sizes = np.array(sizes, dtype=int)
        self.mx_offsets = np.concatenate([[0], np.cumsum(self.mx_sizes)])[:-1].astype(int)
        self.num_mixtures = len(sizes)

        # J^T J and J^T r of every factor land in one flat buffer:
        # [lower band of A | B | C | grad], see NormalEquations
        n_pose, n_lm = 6 * self.num_poses, 3 * self.num_lms
        gap = int(np.abs(self.bt_i - self.bt_j).max()) if len(self.bt_i) else 0
        self.band_rows = 6 * (gap + 1)
        self._border_at = self.band_rows * n_pose
        self._landmark_at = self._border_at + n_pose * n_lm
        self._grad_at = self._landmark_at + n_lm * n_lm
        self._size = self._grad_at + self.num_cols

        pose_cols = 6 * np.arange(self.num_poses)[:, None] + np.arange(6)
        lm_cols = n_pose + 3 * np.arange(self.num_lms)[:, None] + np.arange(3)
        self.pr_scatter = self._scatter_index(pose_cols[self.pr_slot], 6)
        self.bt_scatter = self._scatter_index(
            np.concatenate([pose_cols[self.bt_i], pose_cols[self.bt_j]], axis=1), 12)
        self.ob_scatter = self._scatter_index(
            np.concatenate([pose_cols[self.ob_p], lm_cols[self.ob_l]], axis=1), 6)
        self.mx_scatter = self._scatter_index(
            np.concatenate([pose_cols[self.mx_p], lm_cols[self.mx_l]], axis=1), 6)

    def _scatter_index(self, cols: np.ndarray, pose_width: int):
        """Where each factor's J^T J entries and J^T r go in the flat buffer.

        ``cols`` (n, d) are the system columns of each factor's variables, its
        ``pose_width`` pose columns first. Of the factor's d x d block of
        J^T J, the upper triangle is kept (it holds every A and B entry once)
        plus the lower landmark-landmark part, since C is stored whole.
        Returns the kept positions in the flattened (d + 1) x (d + 1) product
        [J r]^T [J r], whose last column is J^T r, and their (n, kept)
        buffer indices.
        """
        d = cols.shape[1]
        local = np.arange(d)
        is_lm = local >= pose_width
        rows, cs = np.nonzero((local[:, None] <= local) | (is_lm[:, None] & is_lm))
        a, b = cols[:, rows], cols[:, cs]
        n_pose, n_lm = 6 * self.num_poses, 3 * self.num_lms
        index = np.empty_like(a)
        band, lm = ~is_lm[cs], is_lm[rows]
        border = ~(band | lm)
        lo, hi = np.minimum(a[:, band], b[:, band]), np.maximum(a[:, band], b[:, band])
        index[:, band] = (hi - lo) * n_pose + lo
        index[:, border] = self._border_at + a[:, border] * n_lm + (b[:, border] - n_pose)
        index[:, lm] = self._landmark_at + (a[:, lm] - n_pose) * n_lm + (b[:, lm] - n_pose)
        kept = np.concatenate([rows * (d + 1) + cs, local * (d + 1) + d])
        return kept, np.concatenate([index, self._grad_at + cols], axis=1)

    def pose_columns(self, pose_key) -> np.ndarray:
        return 6 * self.pose_slot[pose_key] + np.arange(6)

    def landmark_columns(self, lm_key) -> np.ndarray:
        return 6 * self.num_poses + 3 * self.lm_slot[lm_key] + np.arange(3)

    # -- state handling ------------------------------------------------------

    def gather(self, graph: FactorGraph):
        q = np.array([graph.poses[k].rotation for k in self.pose_ids]).reshape(-1, 4)
        t = np.array([graph.poses[k].translation for k in self.pose_ids]).reshape(-1, 3)
        lms = (np.array([graph.landmarks[k] for k in self.lm_ids]).reshape(-1, 3)
               if self.lm_ids else np.zeros((0, 3)))
        return q, t, lms

    def scatter(self, graph: FactorGraph, state) -> None:
        q, t, lms = state
        for i, k in enumerate(self.pose_ids):
            graph.poses[k] = Pose3._trusted(q[i], t[i])  # retract normalized q
        for i, k in enumerate(self.lm_ids):
            graph.landmarks[k] = lms[i].copy()

    def retract(self, state, delta: np.ndarray):
        q, t, lms = state
        pose_delta = delta[:6 * self.num_poses].reshape(-1, 6)
        lm_delta = delta[6 * self.num_poses:].reshape(-1, 3)
        dq, dt = se3_exp(pose_delta)
        new_q = quat_normalize(quat_mul(q, dq))
        new_t = t + quat_rotate(q, dt)
        return new_q, new_t, lms + lm_delta

    # -- residuals -----------------------------------------------------------

    def _prior_residuals(self, state):
        q, t, _ = state
        r = pose_residuals(self.pr_q, self.pr_t, q[self.pr_slot], t[self.pr_slot])
        return np.einsum("nij,nj->ni", self.pr_w, r), r

    def _between_residuals(self, state):
        q, t, _ = state
        q_ij, t_ij = relative_pose(q[self.bt_i], t[self.bt_i], q[self.bt_j], t[self.bt_j])
        r = pose_residuals(self.bt_q, self.bt_t, q_ij, t_ij)
        return np.einsum("nij,nj->ni", self.bt_w, r), r, q_ij, t_ij

    def _observation_residuals(self, state):
        q, t, lms = state
        r, h = observation_residuals(q[self.ob_p], t[self.ob_p], lms[self.ob_l], self.ob_z)
        rw = np.einsum("nij,nj->ni", self.ob_w, r) * self.ob_s[:, None]
        return rw, h

    def _mixture_components(self, state):
        q, t, lms = state
        r, h = observation_residuals(q[self.mx_p], t[self.mx_p], lms[self.mx_l], self.mx_z)
        rw = np.einsum("nij,nj->ni", self.mx_w, r)
        costs = 0.5 * np.sum(rw * rw, axis=1) + self.mx_nlw
        return rw, h, costs

    def _mixture_active(self, costs):
        if self.num_mixtures == 0:
            return np.zeros(0, dtype=int), 0.0
        gmin = np.minimum.reduceat(costs, self.mx_offsets)
        expanded = np.repeat(gmin, self.mx_sizes)
        candidates = np.flatnonzero(costs == expanded)
        group = np.repeat(np.arange(self.num_mixtures), self.mx_sizes)[candidates]
        _, first = np.unique(group, return_index=True)
        active = candidates[first]
        return active, float(gmin.sum())

    def error_only(self, state) -> float:
        total = 0.0
        if len(self.pr_slot):
            rw, _ = self._prior_residuals(state)
            total += 0.5 * float(np.sum(rw * rw))
        if len(self.bt_i):
            rw, _, _, _ = self._between_residuals(state)
            total += 0.5 * float(np.sum(rw * rw))
        if len(self.ob_p):
            rw, _ = self._observation_residuals(state)
            total += 0.5 * float(np.sum(rw * rw))
        if self.num_mixtures:
            _, _, costs = self._mixture_components(state)
            _, mix_total = self._mixture_active(costs)
            total += mix_total
        return total

    def linearize(self, state):
        """Total error and the Gauss-Newton system, assembled from per-factor blocks."""
        values, indices = [], []
        total = 0.0
        q, _, _ = state

        if len(self.pr_slot):
            rw, r = self._prior_residuals(state)
            total += 0.5 * float(np.sum(rw * rw))
            _add_blocks(values, indices, self.pr_w @ se3_jr_inv(r), rw, self.pr_scatter)

        if len(self.bt_i):
            rw, r, q_ij, t_ij = self._between_residuals(state)
            total += 0.5 * float(np.sum(rw * rw))
            j_i, j_j = between_jacobians(r, q_ij, t_ij)
            jac = np.concatenate([self.bt_w @ j_i, self.bt_w @ j_j], axis=2)
            _add_blocks(values, indices, jac, rw, self.bt_scatter)

        if len(self.ob_p):
            rw, h = self._observation_residuals(state)
            total += 0.5 * float(np.sum(rw * rw))
            j_pose, j_lm = observation_jacobians(q[self.ob_p], h)
            jac = self.ob_s[:, None, None] * (
                self.ob_w @ np.concatenate([j_pose, j_lm], axis=2))
            _add_blocks(values, indices, jac, rw, self.ob_scatter)

        if self.num_mixtures:
            rw, h, costs = self._mixture_components(state)
            active, mix_total = self._mixture_active(costs)
            total += mix_total
            j_pose, j_lm = observation_jacobians(q[self.mx_p[active]], h[active])
            jac = self.mx_w[active] @ np.concatenate([j_pose, j_lm], axis=2)
            kept, index = self.mx_scatter
            _add_blocks(values, indices, jac, rw[active], (kept, index[active]))

        flat = (np.bincount(np.concatenate(indices), np.concatenate(values),
                            minlength=self._size) if values else np.zeros(self._size))
        n_pose, n_lm = 6 * self.num_poses, 3 * self.num_lms
        return total, NormalEquations(
            band=flat[:self._border_at].reshape(self.band_rows, n_pose),
            border=flat[self._border_at:self._landmark_at].reshape(n_pose, n_lm),
            landmark=flat[self._landmark_at:self._grad_at].reshape(n_lm, n_lm),
            grad=flat[self._grad_at:])


def _add_blocks(values, indices, jac, rw, scatter) -> None:
    """Append the kept J^T J entries and J^T r of stacked (n, h, d) Jacobians."""
    kept, index = scatter
    aug = np.concatenate([jac, rw[..., None]], axis=2)
    values.append((np.swapaxes(aug, 1, 2) @ aug).reshape(len(aug), -1)[:, kept].ravel())
    indices.append(index.ravel())


def em_reweight(graph: FactorGraph, iterations: int = 1,
                lm_config: LMConfig | None = None) -> OptimizeReport | None:
    """Alternate E (recompute association weights) and M (optimize) steps.

    Weights of each weighted-observation group are set proportional to the
    marginal measurement likelihood at the current estimates, using the
    innovation covariance frozen at insertion time (falls back to the
    measurement covariance when absent).
    """
    weighted = [f for f in graph.factors if isinstance(f, WeightedObservationFactor)]
    if not weighted:
        return graph.optimize(lm_config)
    # stable-sort by group so each group is one contiguous segment
    weighted.sort(key=lambda f: f.group_id if f.group_id is not None else id(f))
    group_keys = [f.group_id if f.group_id is not None else id(f) for f in weighted]
    offsets = [0] + [i for i in range(1, len(weighted))
                     if group_keys[i] != group_keys[i - 1]] + [len(weighted)]
    offsets = np.array(offsets)

    z = np.array([f.point for f in weighted])
    covs = np.array([f.innovation_cov if f.innovation_cov is not None else f.gamma
                     for f in weighted])
    try:
        chol = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("innovation covariance must be SPD") from exc
    log_norm = -np.log(np.einsum("mkk->mk", chol)).sum(axis=1)
    pose_keys = [f.pose_key for f in weighted]
    lm_keys = [f.landmark_key for f in weighted]

    report = None
    for _ in range(iterations):
        q = np.array([graph.poses[k].rotation for k in pose_keys])
        t = np.array([graph.poses[k].translation for k in pose_keys])
        lms = np.array([graph.landmarks[k] for k in lm_keys])
        r, _ = observation_residuals(q, t, lms, z)
        y = np.linalg.solve(chol, r[..., None])[..., 0]
        logs = -0.5 * np.einsum("mk,mk->m", y, y) + log_norm
        for a, b in zip(offsets[:-1], offsets[1:]):
            w = np.exp(logs[a:b] - logs[a:b].max())
            w = np.maximum(w / w.sum(), 1e-12)
            w /= w.sum()
            for f, wi in zip(weighted[a:b], w):
                f.weight = float(wi)
        graph.bump_weights_version()
        report = graph.optimize(lm_config)
    return report
