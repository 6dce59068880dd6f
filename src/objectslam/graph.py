"""Factor-graph MAP estimation on growable struct-of-arrays storage.

Batch Levenberg-Marquardt on the manifold (right-perturbation retract),
warm-started from the current estimates.

Storage. A FactorGraph keeps everything in one ``_BatchedFactors``: the pose
estimates as (N, 7) rows (unit quaternion, translation), the landmark
estimates as (M, 3), and one table per factor type -- priors, betweens,
observations (plain and weighted) and max-mixture components, one row each --
holding the measurement, the square-root information, the variables' slots
and the factor's scatter index into the system below. Every array sits in a
buffer whose capacity doubles, so appending never moves an existing row.
Variables take slots in insertion order as they are added. ``add_factor``
only queues a factor on ``factors``; the next optimize, error or marginal
call appends the queued tail, vectorized over it. A weight bump rewrites the
weight column of the weighted observations and rebuilds nothing. ``optimize``
retracts the stored arrays directly; ``poses`` and ``landmarks`` are mapping
views that build a Pose3 or a point only when one is read.

System. Linearization is vectorized per factor type and scatters each
factor's J^T J and J^T r blocks straight into the Gauss-Newton system,
ordered poses first:

    [[A,   B],   [dx_pose,      = -grad
     [B^T, C]] .  dx_landmark]

A (6N x 6N) couples poses only through between factors, so it is banded
with 6(w + 1) stored rows, where w is the largest pose-slot gap of any
between: 12 rows for an odometry chain. B (6N x 3M) is the dense border to
the few landmarks and C (3M x 3M) their block. The system is solved with a
banded Cholesky of A and a dense Cholesky of the landmark Schur complement
S = C - B^T A^-1 B (Triggs et al., "Bundle Adjustment - A Modern
Synthesis", 2000). A loop closure between poses w slots apart is exact but
widens the band: storage grows as (6w + 6) * 6N and the factorization as
(6w + 6)^2 * 6N.

``optimize`` keeps the system it ends with, linearized at its final
estimate. The first linearization of the next ``optimize`` appends to that
system instead of linearizing every factor again (the append step of iSAM;
Kaess, Ranganathan & Dellaert, T-RO 2008): only the factor rows added since,
including whole new mixtures, are linearized, their blocks binned on top of
the kept buffer and their error added to the kept error. It linearizes everything when the kept system
cannot be extended exactly: after a weight bump, after a change of the
scatter layout (a wider band or a doubled landmark capacity), or when any
variable the kept system covers no longer holds the estimate it was
linearized at, say after a write to ``poses`` or ``landmarks``.

Marginals come from the undamped factor of that kept system while the
factors and estimates are unchanged (Kaess & Dellaert, RAS 2009), else from
a fresh linearization. The pose in the last slot is the last band column
block, next to the landmark border, so the trailing (6 + 3M) block of the
Cholesky factor L factors the Schur complement that eliminates every other
pose: its inverse is the joint (last pose, landmarks) covariance the gate
needs, with no solve over the other 6(N - 1) pose rows. For any other pose
the marginals are the corresponding columns of the inverse, solved through
the whole factor.

Scatter layout. One ``np.bincount`` assembles the system into a flat buffer
laid out as C (3K x 3K, K the landmark capacity), the landmark gradient
(3K), then one record per pose column c: band column c of A (6(w + 1)
entries), row c of B (3K entries) and the gradient entry. A scatter index
therefore depends on the band width and K only, never on N: it is
recomputed, for every stored factor at once, only when K doubles or a
between spans more pose slots than any before it. Under one layout the
buffer for N poses is a prefix of the buffer for more, which is what lets a
kept system be appended to.

Gauge. A union-find over the variables counts the components that hold no
prior as variables and factors arrive, so ``optimize`` checks the gauge in
O(1).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dtbtrs, dtrtri

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
    poses: Mapping
    landmarks: Mapping


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


_FACTOR_TYPES = (PriorFactor, BetweenFactor, ObservationFactor, MixtureObservationFactor)


class FactorGraph:
    """Pose and landmark variables with their current estimates, and the factors.

    ``poses[k]`` reads the estimate as a read-only Pose3 copy;
    ``landmarks[j]`` is a writable (3,) view of the estimate, valid until the
    next landmark is added. Assigning to an existing key of either overwrites
    the estimate. ``factors`` is append-only: add to it through ``add_factor``.
    """

    def __init__(self):
        self.factors: list = []
        self.weights_version = 0
        self._batch = batch = _BatchedFactors()
        self.poses = _Estimates(batch.pose_ids, batch.pose_slot, batch.poses,
                                _pose_from_row, _row_from_pose)
        self.landmarks = _Estimates(batch.lm_ids, batch.lm_slot, batch.landmarks,
                                    lambda row: row, lambda p: np.asarray(p, dtype=float))
        # (stamp, state, system) at optimize's returned estimate; the marginals
        # reuse it and the next optimize appends to it
        self._final_system = None
        self._uf_parent: dict = {}
        self._uf_anchored: set = set()
        self._num_priors = 0
        self._unanchored = 0  # union-find components that hold no prior

    # -- construction -------------------------------------------------------

    def add_pose(self, key: int, pose: Pose3) -> None:
        if key in self.poses:
            raise ValueError(f"pose {key} already exists")
        self._batch.add_pose(key, pose)
        self._unanchored += 1

    def add_landmark(self, key: int, point: np.ndarray) -> None:
        if key in self.landmarks:
            raise ValueError(f"landmark {key} already exists")
        self._batch.add_landmark(key, np.asarray(point, dtype=float).reshape(3))
        self._unanchored += 1

    def add_factor(self, factor) -> None:
        if not isinstance(factor, _FACTOR_TYPES):
            raise TypeError(f"unsupported factor type {type(factor).__name__}")
        keys = factor.keys()
        for kind, key in keys:
            slots = self._batch.pose_slot if kind == "x" else self._batch.lm_slot
            if key not in slots:
                raise ValueError(f"factor references missing variable {kind}{key}")
        self.factors.append(factor)
        for other in keys[1:]:
            self._uf_union(keys[0], other)
        if isinstance(factor, PriorFactor):
            self._num_priors += 1
            root = self._uf_find(keys[0])
            if root not in self._uf_anchored:
                self._uf_anchored.add(root)
                self._unanchored -= 1

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
            if rb in self._uf_anchored:
                return  # two anchored components: the unanchored count stands
            self._uf_anchored.add(rb)
        self._unanchored -= 1

    def values(self) -> Values:
        return Values(self.poses, self.landmarks)

    def error(self) -> float:
        batch = self._batched()
        return batch.error_only(batch.state())

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
        # a copy, so the state kept below cannot change with the stored estimates
        state = tuple(a.copy() for a in batch.state())
        err, system = batch.linearize(state, self._appendable(batch, state))
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
                    lam = max(lam * 0.1, 1e-12)
                    _, system = batch.linearize(state)
                    gnorm = float(np.linalg.norm(system.grad))
                    if gnorm < config.gradient_tol or rel < config.rel_decrease_tol:
                        converged = True
                    break
                lam *= config.lambda_scale
            if not stepped:
                break

        batch.store(state)
        self._final_system = (self._stamp(), state, system)  # system is linearized at state
        return OptimizeReport(initial, err, iterations, converged, gnorm)

    @staticmethod
    def _factorize(system: "NormalEquations", lam: float = 0.0) -> "SchurFactor":
        """Factor the system, adding lam * max(diag, 1e-12) to the diagonals of A and C."""
        band, landmark = system.band.copy(order="F"), system.landmark
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

    def _appendable(self, batch: "_BatchedFactors", state) -> "NormalEquations | None":
        """The last ``optimize``'s final system, if a linearization at ``state``
        may append to it: the weights and the scatter layout are unchanged and
        every variable it covers still holds the estimate it was linearized at."""
        if self._final_system is None:
            return None
        stamp, (kept_x, kept_lms), system = self._final_system
        x, lms = state
        if (stamp[3] == self.weights_version and system.layout == batch.layout
                and np.array_equal(x[:len(kept_x)], kept_x)
                and np.array_equal(lms[:len(kept_lms)], kept_lms)):
            return system
        return None

    def _validate_gauge(self) -> None:
        """Require a prior and full connectivity to an anchored component."""
        if self._num_priors == 0:
            raise NumericalError("graph has no prior: gauge freedom")
        if self._unanchored:
            raise NumericalError(
                f"{self._unanchored} group(s) of variables are not connected to a prior")

    def _batched(self) -> "_BatchedFactors":
        """The graph's storage, with the factors queued since the last call appended."""
        self._batch.sync(self.factors, self.weights_version)
        return self._batch

    def _stamp(self) -> tuple:
        return len(self.factors), len(self.poses), len(self.landmarks), self.weights_version

    # -- covariance recovery -------------------------------------------------

    def _information_factorization(self):
        """Undamped factor at the current estimate, and the storage; reuses
        ``optimize``'s final system while its factors and estimates are current."""
        batch = self._batched()
        state = batch.state()
        final = self._final_system
        if (final is not None and final[0] == self._stamp()
                and all(map(np.array_equal, final[1], state))):
            system = final[2]
        else:
            _, system = batch.linearize(state)
        return self._factorize(system), batch

    def joint_marginal(self, pose_key: int, landmark_key: int) -> np.ndarray:
        """Exact 9x9 joint (pose, landmark) covariance from the GN information."""
        return self.joint_marginals(pose_key, [landmark_key])[landmark_key]

    def joint_marginals(self, pose_key: int, landmark_keys) -> dict[int, np.ndarray]:
        """Joint 9x9 (pose, landmark) covariances, from ``optimize``'s final
        linearization while the estimate is unchanged."""
        cov = self._marginal_covariance(pose_key, landmark_keys)
        lm = 6 + 3 * np.arange(len(landmark_keys))[:, None] + np.arange(3)
        sel = np.concatenate([np.broadcast_to(np.arange(6), (len(lm), 6)), lm], axis=1)
        return dict(zip(landmark_keys, cov[sel[:, :, None], sel[:, None, :]]))

    def pose_marginal(self, pose_key: int) -> np.ndarray:
        """6x6 pose covariance, from ``optimize``'s final linearization while
        the estimate is unchanged."""
        return self._marginal_covariance(pose_key, [])

    def _marginal_covariance(self, pose_key: int, landmark_keys) -> np.ndarray:
        """Joint covariance of the pose and the landmarks, in that order. For
        the pose in the last slot it comes from the trailing block of the
        factor; for any other pose, from solving for those columns of the
        inverse."""
        if pose_key not in self.poses:
            raise ValueError(f"pose {pose_key} not in graph")
        for k in landmark_keys:
            if k not in self.landmarks:
                raise ValueError(f"landmark {k} not in graph")
        factor, batch = self._information_factorization()
        if batch.pose_slot[pose_key] == batch.num_poses - 1:
            sel = np.concatenate([np.arange(6)] + [6 + 3 * batch.lm_slot[k] + np.arange(3)
                                                  for k in landmark_keys])
            return factor.trailing_covariance()[np.ix_(sel, sel)]
        return _covariance(factor, batch, np.concatenate(
            [batch.pose_columns(pose_key)] + [batch.landmark_columns(k) for k in landmark_keys]))


class _Estimates(Mapping):
    """Variable estimates by key, read from and written to the stored rows."""

    def __init__(self, ids: list, slot: dict, table: "_Table", read, write):
        self._ids, self._slot, self._table = ids, slot, table
        self._read, self._write = read, write

    def __getitem__(self, key):
        return self._read(self._table["x"][self._slot[key]])

    def __setitem__(self, key, value) -> None:
        """Overwrite the estimate of an existing variable."""
        self._table["x"][self._slot[key]] = self._write(value)

    def __contains__(self, key) -> bool:
        return key in self._slot

    def __iter__(self):
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


def _pose_from_row(row: np.ndarray) -> Pose3:
    row = row.copy()
    row.flags.writeable = False
    return Pose3._trusted(row[:4], row[4:])


def _row_from_pose(pose: Pose3) -> np.ndarray:
    return np.concatenate([pose.rotation, pose.translation])


def _covariance(factor: "SchurFactor", batch: "_BatchedFactors", cols) -> np.ndarray:
    """Covariance among the given system columns: those columns of the inverse."""
    rhs = np.zeros((batch.num_cols, len(cols)))
    rhs[cols, np.arange(len(cols))] = 1.0
    block = factor.solve(rhs)[cols]
    return 0.5 * (block + block.T)


@dataclass
class NormalEquations:
    """Gauss-Newton system [[A, B], [B^T, C]] dx = -grad, poses first.

    ``band`` holds the lower band of A in LAPACK storage,
    ``band[r - c, c] = A[r, c]`` for 0 <= r - c < len(band). ``band``,
    ``border`` and ``landmark`` are views of ``flat``, the buffer that
    ``_BatchedFactors.linearize`` binned into; the last four fields let a later
    linearization append to it.
    """

    band: np.ndarray      # (6(w + 1), 6N)
    border: np.ndarray    # B, (6N, 3M)
    landmark: np.ndarray  # C, (3M, 3M)
    grad: np.ndarray      # J^T r, (6N + 3M,)
    flat: np.ndarray      # the scatter buffer, laid out as in the module docstring
    error: float          # total error at the linearization point
    marks: tuple          # prior, between and observation rows and mixtures binned
    layout: tuple         # (band_rows, lm_capacity) that flat is laid out for


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

    def trailing_covariance(self) -> np.ndarray:
        """Joint covariance of the last pose and every landmark, (6 + 3M) square.

        The trailing block of L, L_tt = [[L_A[-6:, -6:], 0], [W[-6:]^T, L_S]],
        is the Cholesky factor of the Schur complement that eliminates every
        other pose, so the covariance is L_tt^-T L_tt^-1, with no solve over
        the other pose rows (Kaess & Dellaert, RAS 2009).
        """
        n = 6 + len(self.schur)
        l_tt = np.zeros((n, n))
        r, c = _TRIL6
        l_tt[r, c] = self.band[r - c, c - 6]
        l_tt[6:, :6] = self.border[-6:].T
        l_tt[6:, 6:] = self.schur
        inv, info = dtrtri(l_tt, lower=1)
        if info:
            raise NumericalError(f"triangular inverse failed (info {info})")
        cov = inv.T @ inv
        return 0.5 * (cov + cov.T)

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


_TRIL6 = np.tril_indices(6)


def _band_solve(band: np.ndarray, rhs: np.ndarray, trans: str) -> np.ndarray:
    """L_A^-1 rhs (trans "N") or L_A^-T rhs (trans "T") for a lower band factor."""
    if not rhs.size:  # the dtbtrs wrapper corrupts the heap when nrhs is 0
        return rhs.copy()
    out, info = dtbtrs(band, rhs, uplo="L", trans=trans)
    if info:
        raise NumericalError(f"banded triangular solve failed (info {info})")
    return out


class _Table:
    """Equal-length columns in buffers whose capacity doubles, so appended rows
    never move. ``table[name]`` is a view of the column's first ``len`` rows."""

    def __init__(self, **columns):
        self._n = 0
        self._cols = {name: np.empty((0,) + shape, dtype)
                      for name, (shape, dtype) in columns.items()}

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, name: str) -> np.ndarray:
        return self._cols[name][:self._n]

    def since(self, start: int) -> dict:
        """Views of every column's rows from ``start`` on."""
        return {name: buf[start:self._n] for name, buf in self._cols.items()}

    @property
    def capacity(self) -> int:
        return len(next(iter(self._cols.values())))

    def extend(self, count: int, **rows) -> None:
        """Append ``count`` rows; columns not given are left for the caller to fill."""
        end = self._n + count
        for name, buf in self._cols.items():
            if end > len(buf):
                grown = np.empty((max(end, 2 * len(buf)),) + buf.shape[1:], buf.dtype)
                grown[:self._n] = buf[:self._n]
                self._cols[name] = buf = grown
            if name in rows:
                buf[self._n:end] = rows[name]
        self._n = end


class _Block(NamedTuple):
    """Which entries of one factor's J^T J block are scattered, and into which part.

    The factor's d system columns hold its pose columns first. Of its d x d
    block the upper triangle is kept (it holds every A and B entry once) plus
    the lower landmark-landmark part, since C is stored whole.
    """

    kept: np.ndarray      # positions in the flattened (d + 1)^2 product [J r]^T [J r];
                          # the last d are its J^T r column
    rows: np.ndarray      # local row and column of each kept J^T J entry
    cols: np.ndarray
    band: np.ndarray      # masks over the kept J^T J entries: in A, in B, in C
    border: np.ndarray
    landmark: np.ndarray
    lm_col: np.ndarray    # mask over the d local columns: a landmark column


def _block(d: int, pose_width: int) -> _Block:
    local = np.arange(d)
    is_lm = local >= pose_width
    rows, cols = np.nonzero((local[:, None] <= local) | (is_lm[:, None] & is_lm))
    kept = np.concatenate([rows * (d + 1) + cols, local * (d + 1) + d])
    return _Block(kept, rows, cols, ~is_lm[cols], ~is_lm[rows] & is_lm[cols], is_lm[rows], is_lm)


_PRIOR_BLOCK, _BETWEEN_BLOCK, _OBSERVATION_BLOCK = _block(6, 6), _block(12, 12), _block(9, 6)


def _pose_cols(slots: np.ndarray) -> np.ndarray:
    return 6 * slots[:, None] + np.arange(6)


def _observation_cols(pose_slots: np.ndarray, lm_slots: np.ndarray) -> np.ndarray:
    """Pose system columns, then landmark columns counted from the first landmark one."""
    return np.concatenate([_pose_cols(pose_slots), 3 * lm_slots[:, None] + np.arange(3)], axis=1)


def _table(block: _Block, **columns) -> _Table:
    d = len(block.lm_col)
    return _Table(cols=((d,), np.intp), index=((len(block.kept),), np.intp), **columns)


class _BatchedFactors:
    """Growable struct-of-arrays storage of a FactorGraph, and the vectorized
    residual and linearization kernels that run over it.

    Variables: ``pose_ids`` / ``lm_ids`` in insertion order, their slots, and
    the estimates ``poses["x"]`` (N, 7) and ``landmarks["x"]`` (M, 3).
    Factors: the tables ``prior``, ``between``, ``observation`` (weight
    column ``s`` = sqrt(weight), 1 for a plain one) and ``mixture`` (one row
    per component; ``mixture_start`` holds each mixture's first row). Each
    factor row keeps its system columns ``cols`` and its scatter ``index``
    into the flat buffer that ``linearize`` bins into (see the module
    docstring). ``sync`` appends the factors queued since the last sync,
    rewrites the weight column after a weight bump, and recomputes every
    scatter index only when the layout changes: when the landmark capacity
    doubles or a between widens the band.
    """

    def __init__(self):
        self.pose_ids: list = []
        self.lm_ids: list = []
        self.pose_slot: dict = {}
        self.lm_slot: dict = {}
        self.poses = _Table(x=((7,), float))
        self.landmarks = _Table(x=((3,), float))
        self.prior = _table(_PRIOR_BLOCK, slot=((), np.intp), q=((4,), float),
                            t=((3,), float), w=((6, 6), float))
        self.between = _table(_BETWEEN_BLOCK, i=((), np.intp), j=((), np.intp),
                              q=((4,), float), t=((3,), float), w=((6, 6), float))
        self.observation = _table(_OBSERVATION_BLOCK, p=((), np.intp), l=((), np.intp),
                                  z=((3,), float), w=((3, 3), float), s=((), float))
        self.mixture = _table(_OBSERVATION_BLOCK, p=((), np.intp), l=((), np.intp),
                              z=((3,), float), w=((3, 3), float), nlw=((), float),
                              group=((), np.intp))
        self.mixture_start = _Table(row=((), np.intp))
        self._weighted: list = []       # weighted observation factors
        self._weighted_rows: list = []  # and their rows in ``observation``
        self._synced = 0                # factors appended so far
        self._weights_version = 0
        self._index_cache = None        # see _static_index
        self._set_layout(band_rows=6, lm_capacity=0)

    # -- variables -----------------------------------------------------------

    def add_pose(self, key, pose: Pose3) -> None:
        self.pose_slot[key] = len(self.pose_ids)
        self.pose_ids.append(key)
        self.poses.extend(1, x=_row_from_pose(pose))

    def add_landmark(self, key, point: np.ndarray) -> None:
        self.lm_slot[key] = len(self.lm_ids)
        self.lm_ids.append(key)
        self.landmarks.extend(1, x=point)

    @property
    def layout(self) -> tuple:
        """(band_rows, lm_capacity): what every scatter index depends on."""
        return self.band_rows, self.lm_capacity

    @property
    def num_poses(self) -> int:
        return len(self.pose_ids)

    @property
    def num_lms(self) -> int:
        return len(self.lm_ids)

    @property
    def num_cols(self) -> int:
        return 6 * self.num_poses + 3 * self.num_lms

    def pose_columns(self, pose_key) -> np.ndarray:
        return 6 * self.pose_slot[pose_key] + np.arange(6)

    def landmark_columns(self, lm_key) -> np.ndarray:
        return 6 * self.num_poses + 3 * self.lm_slot[lm_key] + np.arange(3)

    # -- factors -------------------------------------------------------------

    def sync(self, factors: list, weights_version: int) -> None:
        """Append ``factors[synced:]`` and apply a weight bump."""
        priors, betweens, observations, mixtures = [], [], [], []
        for f in factors[self._synced:]:
            if isinstance(f, PriorFactor):
                priors.append(f)
            elif isinstance(f, BetweenFactor):
                betweens.append(f)
            elif isinstance(f, MixtureObservationFactor):
                mixtures.append(f)
            else:  # ObservationFactor, including weighted
                observations.append(f)
        if len(factors) != self._synced:
            self._index_cache = None
        self._synced = len(factors)

        slot, lm_slot = self.pose_slot, self.lm_slot
        bt_i = np.array([slot[f.key_i] for f in betweens], dtype=np.intp)
        bt_j = np.array([slot[f.key_j] for f in betweens], dtype=np.intp)
        gap = int(np.abs(bt_i - bt_j).max()) if betweens else 0
        band_rows = max(self.band_rows, 6 * (gap + 1))
        if (band_rows, self.landmarks.capacity) != self.layout:
            self._set_layout(band_rows, self.landmarks.capacity)
            self._index_cache = None
            for table, block in self._factor_tables():
                table["index"][:] = self._scatter_index(block, table["cols"])

        if priors:
            p = np.array([slot[f.pose_key] for f in priors], dtype=np.intp)
            self._append(self.prior, _PRIOR_BLOCK, _pose_cols(p), slot=p,
                         q=[f.mean.rotation for f in priors],
                         t=[f.mean.translation for f in priors],
                         w=[f.sqrt_info for f in priors])
        if betweens:
            self._append(self.between, _BETWEEN_BLOCK,
                         np.concatenate([_pose_cols(bt_i), _pose_cols(bt_j)], axis=1),
                         i=bt_i, j=bt_j, q=[f.relative.rotation for f in betweens],
                         t=[f.relative.translation for f in betweens],
                         w=[f.sqrt_info for f in betweens])
        if observations:
            p = np.array([slot[f.pose_key] for f in observations], dtype=np.intp)
            l = np.array([lm_slot[f.landmark_key] for f in observations], dtype=np.intp)
            first = len(self.observation)
            self._append(self.observation, _OBSERVATION_BLOCK, _observation_cols(p, l),
                         p=p, l=l, z=[f.point for f in observations],
                         w=[f.sqrt_info for f in observations],
                         s=np.sqrt([getattr(f, "weight", 1.0) for f in observations]))
            for row, f in enumerate(observations, first):
                if isinstance(f, WeightedObservationFactor):
                    self._weighted.append(f)
                    self._weighted_rows.append(row)
        if mixtures:
            sizes = [len(f.landmark_keys) for f in mixtures]
            parts = [(f, key) for f in mixtures for key in f.landmark_keys]
            p = np.array([slot[f.pose_key] for f, _ in parts], dtype=np.intp)
            l = np.array([lm_slot[key] for _, key in parts], dtype=np.intp)
            starts = len(self.mixture) + np.cumsum([0] + sizes[:-1])
            groups = len(self.mixture_start) + np.repeat(np.arange(len(mixtures)), sizes)
            self.mixture_start.extend(len(mixtures), row=starts)
            self._append(self.mixture, _OBSERVATION_BLOCK, _observation_cols(p, l),
                         p=p, l=l, z=[f.point for f, _ in parts],
                         w=[f.sqrt_info for f, _ in parts],
                         nlw=np.concatenate([f.neg_log_weights for f in mixtures]),
                         group=groups)

        if weights_version != self._weights_version:
            self._weights_version = weights_version
            if self._weighted:
                self.observation["s"][self._weighted_rows] = np.sqrt(
                    [f.weight for f in self._weighted])

    def _factor_tables(self):
        return ((self.prior, _PRIOR_BLOCK), (self.between, _BETWEEN_BLOCK),
                (self.observation, _OBSERVATION_BLOCK), (self.mixture, _OBSERVATION_BLOCK))

    def _append(self, table: _Table, block: _Block, cols: np.ndarray, **rows) -> None:
        table.extend(len(cols), cols=cols, index=self._scatter_index(block, cols), **rows)

    def _set_layout(self, band_rows: int, lm_capacity: int) -> None:
        """Offsets of the flat buffer: C, the landmark gradient, then per pose
        column a record of band_rows band entries, 3K border entries and the
        gradient entry (K = lm_capacity)."""
        self.band_rows = band_rows
        self.lm_capacity = lm_capacity
        lm_width = 3 * lm_capacity
        self._lm_grad_at = lm_width * lm_width
        self._records_at = self._lm_grad_at + lm_width
        self._stride = band_rows + lm_width + 1

    def _scatter_index(self, block: _Block, cols: np.ndarray) -> np.ndarray:
        """Flat-buffer index (n, kept) of each kept J^T J entry and each J^T r
        entry of factors with system columns ``cols`` (n, d)."""
        a, b = cols[:, block.rows], cols[:, block.cols]
        index = np.empty(a.shape, dtype=np.intp)
        m = block.band
        lo, hi = np.minimum(a[:, m], b[:, m]), np.maximum(a[:, m], b[:, m])
        index[:, m] = self._records_at + lo * self._stride + (hi - lo)
        m = block.border
        index[:, m] = self._records_at + a[:, m] * self._stride + self.band_rows + b[:, m]
        m = block.landmark
        index[:, m] = a[:, m] * (3 * self.lm_capacity) + b[:, m]
        grad = np.where(block.lm_col, self._lm_grad_at + cols,
                        self._records_at + (cols + 1) * self._stride - 1)
        return np.concatenate([index, grad], axis=1)

    # -- state handling ------------------------------------------------------

    def state(self):
        """(poses (N, 7), landmarks (M, 3)): views of the stored estimates."""
        return self.poses["x"], self.landmarks["x"]

    def store(self, state) -> None:
        x, lms = state
        self.poses["x"][:] = x
        self.landmarks["x"][:] = lms

    def retract(self, state, delta: np.ndarray):
        x, lms = state
        n_pose = 6 * len(x)
        dq, dt = se3_exp(delta[:n_pose].reshape(-1, 6))
        q = x[:, :4]
        out = np.empty_like(x)
        out[:, :4] = quat_normalize(quat_mul(q, dq))
        out[:, 4:] = x[:, 4:] + quat_rotate(q, dt)
        return out, lms + delta[n_pose:].reshape(-1, 3)

    # -- residuals -----------------------------------------------------------

    def _prior_residuals(self, state, start=0):
        x, _ = state
        pr = self.prior.since(start)
        slot = pr["slot"]
        r = pose_residuals(pr["q"], pr["t"], x[slot, :4], x[slot, 4:])
        return np.einsum("nij,nj->ni", pr["w"], r), r

    def _between_residuals(self, state, start=0):
        x, _ = state
        bt = self.between.since(start)
        i, j = bt["i"], bt["j"]
        q_ij, t_ij = relative_pose(x[i, :4], x[i, 4:], x[j, :4], x[j, 4:])
        r = pose_residuals(bt["q"], bt["t"], q_ij, t_ij)
        return np.einsum("nij,nj->ni", bt["w"], r), r, q_ij, t_ij

    def _observation_residuals(self, state, start=0):
        x, lms = state
        ob = self.observation.since(start)
        p = ob["p"]
        r, h = observation_residuals(x[p, :4], x[p, 4:], lms[ob["l"]], ob["z"])
        rw = np.einsum("nij,nj->ni", ob["w"], r) * ob["s"][:, None]
        return rw, h

    def _mixture_components(self, state, start=0):
        x, lms = state
        mx = self.mixture.since(start)
        p = mx["p"]
        r, h = observation_residuals(x[p, :4], x[p, 4:], lms[mx["l"]], mx["z"])
        rw = np.einsum("nij,nj->ni", mx["w"], r)
        costs = 0.5 * np.sum(rw * rw, axis=1) + mx["nlw"]
        return rw, h, costs

    def _mixture_active(self, costs, first_group=0):
        """The active (first cheapest) component of each mixture from ``first_group``
        on, as a row counted from that mixture's first row, and their total cost."""
        starts = self.mixture_start["row"][first_group:]
        gmin = np.minimum.reduceat(costs, starts - starts[0])
        group = self.mixture["group"][starts[0]:] - first_group
        candidates = np.flatnonzero(costs == gmin[group])
        _, first = np.unique(group[candidates], return_index=True)
        return candidates[first], float(gmin.sum())

    def error_only(self, state) -> float:
        total = 0.0
        if len(self.prior):
            rw, _ = self._prior_residuals(state)
            total += 0.5 * float(np.sum(rw * rw))
        if len(self.between):
            rw, _, _, _ = self._between_residuals(state)
            total += 0.5 * float(np.sum(rw * rw))
        if len(self.observation):
            rw, _ = self._observation_residuals(state)
            total += 0.5 * float(np.sum(rw * rw))
        if len(self.mixture):
            _, _, costs = self._mixture_components(state)
            _, mix_total = self._mixture_active(costs)
            total += mix_total
        return total

    def linearize(self, state, base: "NormalEquations | None" = None):
        """Total error and the Gauss-Newton system, assembled from per-factor blocks.

        ``base`` is a system this storage linearized earlier, under the current
        layout and weights, at estimates that ``state`` still holds for every
        variable ``base`` covers. Only the factor rows appended since are then
        linearized: their blocks are binned on top of ``base.flat`` and their
        error is added to ``base.error``.
        """
        marks = (len(self.prior), len(self.between), len(self.observation),
                 len(self.mixture_start))
        prior0, between0, observation0, group0 = (0, 0, 0, 0) if base is None else base.marks
        blocks = []  # (jac, rw, kept), in the order of _static_index, then the mixtures
        total = 0.0 if base is None else base.error
        x, _ = state

        if marks[0] > prior0:
            rw, r = self._prior_residuals(state, prior0)
            total += 0.5 * float(np.sum(rw * rw))
            blocks.append((self.prior["w"][prior0:] @ se3_jr_inv(r), rw, _PRIOR_BLOCK.kept))

        if marks[1] > between0:
            rw, r, q_ij, t_ij = self._between_residuals(state, between0)
            total += 0.5 * float(np.sum(rw * rw))
            j_i, j_j = between_jacobians(r, q_ij, t_ij)
            w = self.between["w"][between0:]
            blocks.append((np.concatenate([w @ j_i, w @ j_j], axis=2), rw, _BETWEEN_BLOCK.kept))

        if marks[2] > observation0:
            ob = self.observation.since(observation0)
            rw, h = self._observation_residuals(state, observation0)
            total += 0.5 * float(np.sum(rw * rw))
            j_pose, j_lm = observation_jacobians(x[ob["p"], :4], h)
            jac = ob["s"][:, None, None] * (ob["w"] @ np.concatenate([j_pose, j_lm], axis=2))
            blocks.append((jac, rw, _OBSERVATION_BLOCK.kept))

        index = self._static_index((prior0, between0, observation0))
        if marks[3] > group0:
            mix0 = int(self.mixture_start["row"][group0])  # the first row of mixture group0
            mx = self.mixture.since(mix0)
            rw, h, costs = self._mixture_components(state, mix0)
            active, mix_total = self._mixture_active(costs, group0)
            total += mix_total
            j_pose, j_lm = observation_jacobians(x[mx["p"][active], :4], h[active])
            jac = mx["w"][active] @ np.concatenate([j_pose, j_lm], axis=2)
            blocks.append((jac, rw[active], _OBSERVATION_BLOCK.kept))
            index = np.concatenate([index, mx["index"][active].ravel()])

        # the kept entries of each stacked [J r]^T [J r], in index order
        values = np.empty(len(index))
        at = 0
        for jac, rw, kept in blocks:
            out = values[at:at + len(jac) * len(kept)].reshape(len(jac), len(kept))
            aug = np.concatenate([jac, rw[..., None]], axis=2)
            np.take((np.swapaxes(aug, 1, 2) @ aug).reshape(len(aug), -1), kept, axis=1,
                    out=out, mode="clip")
            at += out.size

        n_pose, n_lm = 6 * self.num_poses, 3 * self.num_lms
        flat = np.bincount(index, values, minlength=self._records_at + n_pose * self._stride)
        flat = flat.astype(float, copy=False)  # bincount of nothing is an integer array
        if base is not None:  # the layout is unchanged, so base.flat is a prefix
            flat[:len(base.flat)] += base.flat
        lm_width = 3 * self.lm_capacity
        records = flat[self._records_at:].reshape(n_pose, self._stride)
        return total, NormalEquations(
            band=records[:, :self.band_rows].T,
            border=records[:, self.band_rows:self.band_rows + n_lm],
            landmark=flat[:self._lm_grad_at].reshape(lm_width, lm_width)[:n_lm, :n_lm],
            grad=np.concatenate([records[:, -1],
                                 flat[self._lm_grad_at:self._lm_grad_at + n_lm]]),
            flat=flat, error=total, marks=marks, layout=self.layout)

    def _static_index(self, starts) -> np.ndarray:
        """Scatter indices of the prior, between and observation rows from
        ``starts`` on, in that order. The concatenation over all rows is kept
        until the next sync rather than rebuilt at every linearization."""
        tables = (self.prior, self.between, self.observation)
        if any(starts):
            return np.concatenate([t["index"][s:].ravel() for t, s in zip(tables, starts)])
        if self._index_cache is None:
            self._index_cache = np.concatenate([t["index"].ravel() for t in tables])
        return self._index_cache


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
    batch = graph._batch
    pose_slots = [batch.pose_slot[f.pose_key] for f in weighted]
    lm_slots = [batch.lm_slot[f.landmark_key] for f in weighted]

    report = None
    for _ in range(iterations):
        x, lms = batch.state()
        r, _ = observation_residuals(x[pose_slots, :4], x[pose_slots, 4:], lms[lm_slots], z)
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
