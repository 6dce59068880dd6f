"""Factor-graph MAP estimation on growable struct-of-arrays storage.

Batch Levenberg-Marquardt on the manifold (right-perturbation retract),
warm-started from the current estimates.

Storage. A FactorGraph keeps everything in one ``_BatchedFactors``: the pose
estimates as (N, 7) rows (unit quaternion, translation), the landmark
estimates as (M, 3), and two factor tables -- pose factors and observations
-- holding the measurement (a pose factor's rotation as the matrix the
residual kernel takes), the square-root information, the variables' slots
and the factor's scatter index into the system below. A prior is a
between from the origin: an anchored row whose first pose is the identity,
with a zero Jacobian on that side, both of whose slots are its own pose's.
An observation row is a plain or EM-weighted observation or one component
of a max-mixture (Olson & Agarwal, RSS 2012), with side indexes of the
latter two. Every array sits in a buffer whose capacity doubles, so
appending never moves an existing row. Variables take slots in insertion
order as they are added. ``add_factor`` only queues a factor on
``factors``; the next optimize, error or marginal call appends the queued
tail, vectorized over it. The graph is the only writer of what it stores:
``optimize`` is the only writer of the estimates, and ``em_reweight`` the
only one of the weights, which rewrites the weight column of the weighted
observations and rebuilds nothing. ``poses`` and ``landmarks`` are mappings
that return a read-only copy of an estimate when one is read.

Observation scale. Each observation row's whitened residual and Jacobian
carry a scale taken at the estimate the residuals are for: 1 for a plain
row, sqrt(w) for an EM-weighted one, and for a mixture component 1 when it
is its mixture's first cheapest component there and 0 otherwise. The error
is 1/2 sum ||scale W r||^2 plus the -log w of every active component: the
min over components of each mixture's cost.

System. Linearization is vectorized per factor table and scatters each
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

What carries across solves. The graph keeps one current system, the latest
linearization (``_BatchedFactors._latest``), while it is at the stored
estimate: ``optimize`` ends with it, at the estimate it stores, and both
``optimize`` and the marginals start from it (``_current_system``). Each
system keeps a copy of the estimate it is at, which is compared with the
stored one, so a linearization at an estimate never stored (a trial step of
an ``optimize`` that raised, a probe) is not taken for the current system.
Once rows are added, only those get residuals, Jacobians, J^T J and J^T r,
added to its A, B, C, gradient and error, mixture and weighted rows
included. A linearization that gives no row it holds a new Jacobian keeps
its A, B and C, so a capped solve whose last step moved no variable past
RELINEARIZE_THRESHOLD ends without rebinning its Hessian. There is no
current system, and every row is linearized, after ``em_reweight`` set new
weights, a relayout (a wider band, a doubled landmark capacity) or a
linearization at an estimate that was not stored.

The graph also keeps its latest undamped factor, and each factorization
records the first pose slot among the rows linearized anew since then: the
first pose column whose J^T J entries changed. The band has 6(w + 1) rows,
so the columns of L_A before that one, and the rows of W = L_A^-1 B above
it, do not depend on anything after it. An undamped factorization keeps
them and refactors only the trailing part, whose corner first loses its
product with the kept L_A columns next to it, and updates a running W^T W
by the changed rows of W (Kaess, Ranganathan & Dellaert, "iSAM", T-RO
2008). A band widening, a landmark-capacity doubling or new weights force a
full factorization. Every undamped factorization of the latest system, by
``optimize`` or the marginals, goes this way, and when no row was
linearized anew since the kept factor was taken and the graph has the same
poses, landmarks and band rows, the kept factor is that system's factor and
is reused as it is: a marginal right after a solve whose last linearization
changed no Jacobian makes no factorization. LM damping adds to every
diagonal and so cannot reuse the factor; ``optimize`` therefore takes
undamped Gauss-Newton steps until a step is rejected, and only then damps.

Fluid relinearization (iSAM2; Kaess et al., IJRR 2012). Every variable has
a linearization point, and every between and observation row stores its
whitened Jacobian, taken at the points of its variables, and the kept
entries of that Jacobian's J^T J. A variable's point is NaN until its
first linearization. A linearization gives a row a new Jacobian only when
the row is new, when one of its variables moved more than
RELINEARIZE_THRESHOLD in any stored parameter from its point (the point
then moves to the estimate first) or, for a weighted row, when its scale
differs from the one its stored Jacobian was taken with, after
``em_reweight`` set new weights. The rows of a mixture of two or more
components are linearized anew every time, at the estimate, where
the active component is chosen; a one-component mixture cannot switch and
is kept like a plain row. ``linearize`` bins each row's kept J^T J entries
and its J^T r, whose residual r is always taken at the estimate: the
residuals the LM acceptance test just computed (``error_only``), so one
residual pass serves both. The error is therefore exact, and the system is
exact wherever the points sit at the estimate; a system whose every point
does is "fresh". A wider band or a doubled landmark capacity only re-indexes
the stored rows.

``optimize`` ends fresh whenever it converges: before a solve stops as
converged it relinearizes every stale row and checks again, and a rejected
step is retried on a fresh system. Only a solve cut off by
``max_iterations`` (the online pipeline's 2-iteration solves) may end with
stale rows, linearized at points within the threshold of its estimate.

Marginals come from the kept factor of the current system (Kaess &
Dellaert, RAS 2009). After a converged solve every point sits at the
estimate, so that system is exact, rows appended since included. After an
iteration-capped one, its stale rows and the rows appended since to their
variables are linearized at points up to RELINEARIZE_THRESHOLD from the
returned estimate, and the gate covariance is the one at those points.
There is one marginal path: the pose in the last slot is the last band
column block, next to the landmark border, so the trailing (6 + 3M) block
of the Cholesky factor L factors the Schur complement that eliminates every
other pose. Its inverse is the joint (last pose, landmarks) covariance the
gate needs, with no solve over the other 6(N - 1) pose rows. That one
matrix, ``joint_covariance``, is what the pipeline hands the gate, landmark
cross-covariances included; ``joint_marginals`` returns its 9x9
pose-landmark blocks. Both serve the pose in the last slot only.

Scatter layout. ``linearize`` bins J^T J into a flat buffer laid out as C
(3K x 3K, K the landmark capacity), then one record per pose column c: band
column c of A (6(w + 1) entries) and row c of B (3K entries). It bins J^T r
into a compact gradient: the 3K landmark entries, landmark column c at c,
then pose column a at 3K + a. Each row keeps both index sets (``index``,
``grad_index``). They depend on the band width and K only, never on N: they
are recomputed, for every stored factor at once, only when K doubles or a
between spans more pose slots than any before it, and a kept buffer or
gradient stays a prefix of the next one as poses are added. Each entry's
index is a constant plus multiples of its factor's two slots
(``_index_form``).

Gauge. ``optimize`` reads the gauge off the factor tables: the between
slots (i, j) and the observation slots (p, l) are the edges of a graph over
the N + M variables, and a union-find pass over it counts the components
that hold no anchored row. The graph keeps the counts of between rows,
observation rows, poses and landmarks of its last passing check, and
nothing when a check fails. The graph only grows and a factor only links
variables that already exist, so every variable of that check stays
anchored: the next check merges them into one anchored vertex and passes
over the rows appended since only, O(new rows + new variables). Adding a
variable or a factor keeps no connectivity state.
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

from .errors import DataFormatError, NumericalError
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
from .geometry import Pose3, quat_mul, quat_normalize, quat_to_matrix, se3_exp
from .geometry import se3_jr_inv  # noqa: F401  # perfbench's self-test reads it from here


@dataclass
class LMConfig:
    max_iterations: int = 100


# Levenberg-Marquardt stopping tolerances and damping schedule
REL_DECREASE_TOL = 1e-9
GRADIENT_TOL = 1e-8
INIT_LAMBDA = 1e-6
LAMBDA_SCALE = 10.0
MAX_LAMBDA = 1e10


@dataclass
class OptimizeReport:
    """``gradient_norm`` is that of the system the solve ended with. A solve
    cut off by ``max_iterations`` may end with stale rows, so its gradient is
    the lagged model's, not the true gradient at the returned estimate.

    ``stop_reason`` is why the solve stopped: ``"gradient"`` (the fresh
    gradient's norm fell below GRADIENT_TOL) or ``"relative decrease"`` (an
    accepted step lowered the error by less than REL_DECREASE_TOL of it),
    both converged, else ``"max_iterations"`` or ``"no acceptable step"``
    (every step was rejected up to MAX_LAMBDA). ``final_lambda`` is the LM
    damping the solve ended with (0 when undamped) and ``rejected_steps``
    counts its rejected trial steps."""

    initial_error: float
    final_error: float
    iterations: int
    converged: bool
    gradient_norm: float
    stop_reason: str
    final_lambda: float
    rejected_steps: int


# A variable's rows are relinearized once any parameter of its estimate (unit
# quaternion and translation, or point) lies farther than this from the point
# they were last linearized at.
RELINEARIZE_THRESHOLD = 1e-3

_FACTOR_TYPES = (PriorFactor, BetweenFactor, ObservationFactor, MixtureObservationFactor)


class FactorGraph:
    """Pose and landmark variables with their current estimates, and the factors.

    ``poses[k]`` reads the estimate as a read-only Pose3 copy and
    ``landmarks[j]`` as a read-only (3,) copy: only ``optimize`` moves the
    estimates. ``factors`` is append-only: add to it through ``add_factor``.
    """

    def __init__(self):
        self.factors: list = []
        self._batch = batch = _BatchedFactors()
        self.poses = _Estimates(batch.pose_slot, batch.poses, _pose_from_row)
        self.landmarks = _Estimates(batch.lm_slot, batch.landmarks, _frozen_copy)
        self._factor = None  # the latest undamped factor; see _keep_factor
        # between rows, observation rows, poses and landmarks at the last
        # passing gauge check; see _validate_gauge
        self._gauge = (0, 0, 0, 0)

    # -- construction -------------------------------------------------------

    def add_pose(self, key: int, pose: Pose3) -> None:
        if key in self.poses:
            raise ValueError(f"pose {key} already exists")
        self._batch.add_pose(key, pose)

    def add_landmark(self, key: int, point: np.ndarray) -> None:
        if key in self.landmarks:
            raise ValueError(f"landmark {key} already exists")
        point = np.asarray(point, dtype=float).reshape(3)
        if not np.isfinite(point).all():
            raise DataFormatError(f"landmark {key} must be finite, got {point}")
        self._batch.add_landmark(key, point)

    def add_factor(self, factor) -> None:
        """Check that ``factor`` is of a supported type and that its variables
        exist, and queue it on ``factors``; the next optimize or marginal call
        appends the queued factors to the factor tables."""
        if not isinstance(factor, _FACTOR_TYPES):
            raise TypeError(f"unsupported factor type {type(factor).__name__}")
        for kind, key in factor.keys():
            slots = self._batch.pose_slot if kind == "x" else self._batch.lm_slot
            if key not in slots:
                raise ValueError(f"factor references missing variable {kind}{key}")
        self.factors.append(factor)

    # -- optimization -------------------------------------------------------

    def optimize(self, config: LMConfig | None = None) -> OptimizeReport:
        """Levenberg-Marquardt from the current estimates.

        It first appends the queued factors and checks the gauge (see
        ``_validate_gauge``): NumericalError unless the graph has a prior and
        every variable is linked through factors to a pose that holds one.
        It starts from the current system (``_current_system``): the latest
        one, with only the rows added since linearized, so after no change it
        linearizes nothing before its first step. Each accepted step
        relinearizes only the rows whose variables moved, with its gradient
        taken at the residuals the acceptance test just computed. A rejected
        step makes the system fresh before the next factorization, and a
        solve that would stop as converged first makes it fresh and checks
        again, so a converged solve ends exact at its returned estimate.

        Steps are undamped Gauss-Newton (lambda = 0) until one is rejected:
        the first rejection sets lambda to INIT_LAMBDA and each further one
        multiplies it by LAMBDA_SCALE; each accepted step divides it by
        LAMBDA_SCALE, back to 0 once it falls below INIT_LAMBDA. An undamped
        factorization refactors only from the first pose column that changed
        since the kept factor (see ``_factorize``).
        """
        config = config or LMConfig()
        batch = self._batched()
        self._validate_gauge(batch)
        state = batch.state()
        system = self._current_system()
        initial = err = system.error
        residuals = None  # error_only's result at state, once a step is accepted

        def stops(rel: float) -> str | None:
            """The stop reason if the solve has converged at ``state``, else
            None; a system that says it has is made fresh and asked again."""
            nonlocal system
            small = rel < REL_DECREASE_TOL
            if float(np.linalg.norm(system.grad)) >= GRADIENT_TOL and not small:
                return None
            if not system.fresh:
                system = batch.linearize(state, residuals, fresh=True)
            if float(np.linalg.norm(system.grad)) < GRADIENT_TOL:
                return "gradient"
            return "relative decrease" if small else None

        lam = 0.0
        iterations = rejected = 0
        stop = stops(np.inf)
        while stop is None and iterations < config.max_iterations:
            stepped = False
            while lam <= MAX_LAMBDA:
                factor = self._factorize(system, lam) if lam else self._keep_factor(system)
                candidate = batch.retract(state, factor.solve(-system.grad))
                cand = batch.error_only(candidate)
                if cand.error <= err and np.isfinite(cand.error):
                    rel = (err - cand.error) / max(err, 1e-300)
                    state, residuals, err = candidate, cand, cand.error
                    iterations += 1
                    stepped = True
                    lam = lam / LAMBDA_SCALE if lam / LAMBDA_SCALE >= INIT_LAMBDA else 0.0
                    system = batch.linearize(state, residuals)
                    stop = stops(rel)
                    break
                rejected += 1
                if not system.fresh:
                    system = batch.linearize(state, residuals, fresh=True)
                lam = lam * LAMBDA_SCALE if lam else INIT_LAMBDA
            if not stepped:
                stop = "no acceptable step"

        batch.store(state)  # the latest system, ``system``, is linearized at state
        return OptimizeReport(initial, err, iterations, stop in ("gradient", "relative decrease"),
                              float(np.linalg.norm(system.grad)), stop or "max_iterations",
                              lam, rejected)

    def _current_system(self) -> "NormalEquations":
        """The system at the stored estimate: the latest linearization
        (``_BatchedFactors._latest``) while it holds every row, pose and
        landmark, else that system with the rows added since appended (see
        ``_BatchedFactors.linearize``). Every row is linearized when there
        is none (after ``em_reweight`` or a relayout) or it is at another
        estimate than the stored one: its variables' stored values differ
        from the ones it was linearized at."""
        batch = self._batched()
        system, (x, lms) = batch._latest, batch.state()
        if system is None or not all(np.array_equal(a[:len(b)], b)
                                     for a, b in zip((x, lms), system.estimate)):
            return batch.linearize(batch.state())
        if (batch._linearized != (len(batch.between), len(batch.observation))
                or len(system.estimate[0]) != batch.num_poses
                or len(system.estimate[1]) != batch.num_lms):
            return batch.linearize(batch.state(), append=True)
        return system

    def _keep_factor(self, system: "NormalEquations") -> "SchurFactor":
        """The undamped factor of ``system``, the latest linearization, kept for
        the next one: refactored from the first pose slot whose rows changed
        since the kept factor, or the kept factor itself when no row changed
        and the graph has the same poses, landmarks and band rows."""
        batch, kept = self._batch, self._factor
        if (kept is None or batch.changed_from < batch.num_poses
                or kept.band.shape != system.band.shape or len(kept.schur) != len(system.landmark)):
            self._factor = self._factorize(system, kept=kept, first=batch.changed_from)
        batch.changed_from = batch.num_poses
        return self._factor

    @staticmethod
    def _factorize(system: "NormalEquations", lam: float = 0.0,
                   kept: "SchurFactor | None" = None, first: int = 0) -> "SchurFactor":
        """Factor the system, adding lam * max(diag, 1e-12) to the diagonals of A and C.

        ``kept`` is an undamped factor of an earlier system with as many band
        rows, whose A and B equal this system's in every pose column before
        pose slot ``first``. An undamped factorization then keeps those
        columns of L_A and the rows of W = L_A^-1 B above them, and factors
        only the trailing band: its corner first loses the product of the
        kept L_A[c0:c0 + w, c0 - w:c0] with itself (c0 the first changed
        column, w the band's off-diagonals), and the trailing rows of B lose
        that corner times the kept rows of W above it. W^T W is the kept one
        less the kept trailing rows' part, plus the new trailing rows' part.
        """
        band, landmark = system.band, system.landmark
        n_pose, rows = band.shape[1], len(band)
        start = 0
        if kept is not None and not lam and len(kept.band) == rows:
            start = 6 * min(first, kept.band.shape[1] // 6)
        trailing, border = band[:, start:].copy(order="F"), system.border[start:]
        if lam:
            trailing[0] += lam * np.maximum(trailing[0], 1e-12)
            landmark = landmark + np.diag(lam * np.maximum(np.diag(landmark), 1e-12))
        if start:
            corner = _corner(kept.band, start)
            m, n_lm = len(corner), kept.border.shape[1]
            trailing[:, :m] -= _lower_band(corner @ corner.T, rows)
            border = border.copy()
            border[:m, :n_lm] -= corner @ kept.border[start - corner.shape[1]:start]
        try:
            trailing = sla.cholesky_banded(trailing, lower=True, overwrite_ab=True,
                                           check_finite=False)
            w_trailing = _band_solve(trailing, border, "N")
            gram = w_trailing.T @ w_trailing
            if start:  # the kept W^T W less its trailing rows' part
                old = kept.border[start:]
                gram[:n_lm, :n_lm] += kept.gram - old.T @ old
                band = np.concatenate([kept.band[:, :start], trailing], axis=1)
                w = np.empty((n_pose, border.shape[1]))
                w[:start, :n_lm] = kept.border[:start]
                w[:start, n_lm:] = 0.0  # landmarks added since: observed only further on
                w[start:] = w_trailing
            else:
                band, w = trailing, w_trailing
            schur = sla.cholesky(landmark - gram, lower=True, overwrite_a=True,
                                 check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"information matrix is not positive definite: {exc}") from exc
        return SchurFactor(band, w, schur, gram)

    def _validate_gauge(self, batch: "_BatchedFactors") -> None:
        """Require a prior, and every variable linked through the factor tables
        to a pose that holds one. Every variable of the last passing check
        (``_gauge``) is still anchored, so one union-find pass runs over the
        rows appended since, with those variables merged into vertex 0, which
        counts as anchored, and the poses and then landmarks added since after
        it. A mixture component is an observation row, so a mixture links its
        pose to every candidate landmark."""
        bt, ob = batch.between, batch.observation
        counts = (len(bt), len(ob), batch.num_poses, batch.num_lms)
        if counts == self._gauge:
            return
        b0, o0, n0, m0 = self._gauge
        anchored = bt["anchored"][b0:]
        if not (b0 or anchored.any()):  # a passing check saw a prior
            raise NumericalError("graph has no prior: gauge freedom")
        lm_shift = counts[2] - n0 + 1 - m0
        size = lm_shift + counts[3]

        def pose_vertex(slots):
            return np.maximum(slots - (n0 - 1), 0)

        rows = np.concatenate([pose_vertex(bt["i"][b0:]), pose_vertex(ob["p"][o0:])])
        landmarks = ob["l"][o0:]
        cols = np.concatenate([pose_vertex(bt["j"][b0:]),
                               np.where(landmarks < m0, 0, landmarks + lm_shift)]).astype(np.int32)
        parent = list(range(size))  # union-find forest, each tree under its least vertex

        def root(v):
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            return v

        for a, b in zip(rows.tolist(), cols.tolist()):
            a, b = root(a), root(b)
            if a != b:
                parent[max(a, b)] = min(a, b)
        anchored_roots = {root(v) for v in pose_vertex(bt["i"][b0:][anchored]).tolist()}
        free = sum(v == p for v, p in enumerate(parent)) - len(anchored_roots | {0})
        if free:
            raise NumericalError(f"{free} group(s) of variables are not connected to a prior")
        self._gauge = counts

    def _batched(self) -> "_BatchedFactors":
        """The graph's storage, with the factors queued since the last call appended."""
        self._batch.sync(self.factors)
        return self._batch

    def _set_weights(self, which: np.ndarray, weights: np.ndarray) -> None:
        """The one writer of observation weights: give the weighted observation
        factors at positions ``which`` of ``_BatchedFactors.weighted`` the
        ``weights``, write their rows' scale sqrt(w), and drop the latest
        system, which was linearized with the old scales, and the kept factor."""
        batch = self._batched()
        for i, w in zip(which.tolist(), weights.tolist()):
            batch._weighted[i]._weight = w  # read-only everywhere else
        batch.observation["s"][batch.weighted["row"][which]] = np.sqrt(weights)
        batch._latest = None
        batch.changed_from = 0

    # -- covariance recovery -------------------------------------------------

    def joint_covariance(self, pose_key: int, landmark_keys) -> np.ndarray:
        """Joint (6 + 3M) covariance of the pose in the last slot and the
        landmarks, in that order: the inverse of the trailing block of the
        kept undamped factor of the current system (``_current_system``),
        refactored only from the first pose column that changed since that
        factor was taken. Any other pose raises ValueError."""
        if self._batch.pose_slot.get(pose_key) != len(self.poses) - 1:
            raise ValueError(f"pose {pose_key} is not the last pose of the graph")
        for k in landmark_keys:
            if k not in self.landmarks:
                raise ValueError(f"landmark {k} not in graph")
        factor = self._keep_factor(self._current_system())
        sel = np.concatenate([np.arange(6)] + [6 + 3 * self._batch.lm_slot[k] + np.arange(3)
                                              for k in landmark_keys])
        return factor.trailing_covariance()[np.ix_(sel, sel)]

    def joint_marginals(self, pose_key: int, landmark_keys) -> dict[int, np.ndarray]:
        """Joint 9x9 (last pose, landmark) covariances: the blocks of
        ``joint_covariance``."""
        cov = self.joint_covariance(pose_key, landmark_keys)
        return dict(zip(landmark_keys, pose_landmark_blocks(cov)))


class _Estimates(Mapping):
    """Variable estimates by key, read from the stored rows as read-only copies."""

    def __init__(self, slot: dict, table: "_Table", read):
        self._slot, self._table = slot, table
        self._read = read

    def __getitem__(self, key):
        return self._read(self._table["x"][self._slot[key]])

    def __contains__(self, key) -> bool:
        return key in self._slot

    def __iter__(self):
        return iter(self._slot)

    def __len__(self) -> int:
        return len(self._slot)


def _frozen_copy(row: np.ndarray) -> np.ndarray:
    row = row.copy()
    row.flags.writeable = False
    return row


def _pose_from_row(row: np.ndarray) -> Pose3:
    row = _frozen_copy(row)
    return Pose3._trusted(row[:4], row[4:])


def _row_from_pose(pose: Pose3) -> np.ndarray:
    return np.concatenate([pose.rotation, pose.translation])


def pose_landmark_blocks(cov: np.ndarray) -> np.ndarray:
    """The (n, 9, 9) joint (pose, landmark i) blocks of a (6 + 3n) covariance
    laid out as ``FactorGraph.joint_covariance`` returns it."""
    n = (len(cov) - 6) // 3
    lm = 6 + 3 * np.arange(n)[:, None] + np.arange(3)
    sel = np.concatenate([np.broadcast_to(np.arange(6), (n, 6)), lm], axis=1)
    return cov[sel[:, :, None], sel[:, None, :]]


@dataclass
class NormalEquations:
    """Gauss-Newton system [[A, B], [B^T, C]] dx = -grad, poses first.

    ``band`` holds the lower band of A in LAPACK storage,
    ``band[r - c, c] = A[r, c]`` for 0 <= r - c < len(band). ``band``,
    ``border`` and ``landmark`` view ``flat``, which a later system may
    share, so no system is written to after it is built.
    """

    band: np.ndarray      # (6(w + 1), 6N)
    border: np.ndarray    # B, (6N, 3M)
    landmark: np.ndarray  # C, (3M, 3M)
    grad: np.ndarray      # J^T r, (6N + 3M,)
    fresh: bool           # every row is linearized at the estimate grad is taken at
    relinearized: int     # between and observation rows linearized anew for it
    error: float          # total error at that estimate
    flat: np.ndarray      # the scatter buffer band, border and landmark view
    estimate: tuple       # copies of the (poses, landmarks) estimate grad and error are at


class SchurFactor:
    """Cholesky factor of a NormalEquations system,

        [[A, B], [B^T, C]] = L L^T,  L = [[L_A, 0], [W^T, L_S]],

    with A = L_A L_A^T, W = L_A^-1 B and S = C - W^T W = L_S L_S^T.
    """

    def __init__(self, band: np.ndarray, border: np.ndarray, schur: np.ndarray,
                 gram: np.ndarray):
        self.band = band      # L_A in the lower band storage of NormalEquations
        self.border = border  # W, dense
        self.schur = schur    # L_S, dense lower
        self.gram = gram      # W^T W, kept for a later factor that reuses W's rows

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
        """L as one sparse matrix, built on first use; for fill-in counts.

        With landmarks it holds the non-zeros of L_A, W^T and L_S; without,
        it is L_A in diagonal storage, whose ``nnz`` counts stored zeros too.
        """
        n_pose, width = self.band.shape[1], len(self.band)
        if not len(self.schur):
            return sp.dia_matrix((self.band, -np.arange(width)), shape=(n_pose, n_pose))
        # the band's last columns run past the end of A
        band, k, c = _nonzeros(np.where(np.arange(width)[:, None] + np.arange(n_pose) < n_pose,
                                        self.band, 0.0))
        border, b_row, b_col = _nonzeros(self.border)
        schur, s_row, s_col = _nonzeros(self.schur)
        data = np.concatenate([band, border, schur])
        rows = np.concatenate([c + k, n_pose + b_col, n_pose + s_row])
        cols = np.concatenate([c, b_row, n_pose + s_col])
        n = n_pose + len(self.schur)
        return sp.coo_matrix((data, (rows, cols)), shape=(n, n))

    @property
    def U(self) -> sp.spmatrix:
        return self.L.T


_TRIL6 = np.tril_indices(6)


def _corner(band: np.ndarray, start: int) -> np.ndarray:
    """L[start:start + m, start - k:start] of the lower band factor L, dense,
    where k = min(w, start), m = min(w, n - start) and w = len(band) - 1: all
    of L's non-zeros left of column ``start`` in rows from ``start`` on."""
    rows, n = band.shape
    k, m = min(rows - 1, start), min(rows - 1, n - start)
    diagonal = np.arange(m)[:, None] + k - np.arange(k)  # r - c of each entry
    cols = start - k + np.arange(k)
    return np.where(diagonal < rows, band[np.minimum(diagonal, rows - 1), cols], 0.0)


def _lower_band(a: np.ndarray, rows: int) -> np.ndarray:
    """The (rows, m) lower band storage of the symmetric m x m matrix ``a``."""
    m = len(a)
    r = np.arange(rows)[:, None] + np.arange(m)
    return np.where(r < m, a[np.minimum(r, m - 1), np.arange(m)], 0.0)


def _nonzeros(a: np.ndarray):
    """The non-zero entries of a 2-D array and their row and column indices."""
    mask = a != 0
    return (a[mask],) + np.nonzero(mask)


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

    The factor's d system columns are offsets 0-5 of its first variable, a
    pose, then those of its second: a pose (between) or a landmark
    (observation). Of its d x d block the upper triangle is kept (it holds
    every A and B entry once) plus the lower landmark-landmark part, since C
    is stored whole.
    """

    kept: np.ndarray      # positions of the kept entries in the flattened d x d J^T J
    rows: np.ndarray      # local row and column of each kept entry
    cols: np.ndarray
    band: np.ndarray      # masks over the kept entries: in A, in B, in C
    border: np.ndarray
    landmark: np.ndarray
    lm_col: np.ndarray    # mask over the d local columns: a landmark column


def _block(d: int, pose_width: int) -> _Block:
    local = np.arange(d)
    is_lm = local >= pose_width
    rows, cols = np.nonzero((local[:, None] <= local) | (is_lm[:, None] & is_lm))
    return _Block(rows * d + cols, rows, cols, ~is_lm[cols], ~is_lm[rows] & is_lm[cols],
                  is_lm[rows], is_lm)


def _kept_products(jac: np.ndarray, block: _Block) -> np.ndarray:
    """The kept J^T J entries of each stacked whitened Jacobian, (n, len(kept))."""
    product = np.swapaxes(jac, 1, 2) @ jac
    return np.take(product.reshape(len(jac), -1), block.kept, axis=1)


def _relinearize_points(table: "_Table", x: np.ndarray, threshold: float):
    """Move to ``x`` the linearization point ``lin`` of every variable whose
    estimate lies more than ``threshold`` from it in any parameter, or that has
    none (NaN). Return the variables moved, and those whose point is now at ``x``."""
    lin = table["lin"]
    gap = np.abs(x - lin).max(axis=1, initial=0.0)
    moved = ~(gap <= threshold)
    lin[moved] = x[moved]
    return moved, moved | (gap == 0.0)


_BETWEEN_BLOCK, _OBSERVATION_BLOCK = _block(12, 12), _block(9, 6)
_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def _table(block: _Block, **columns) -> _Table:
    kept, d = (len(block.kept),), (len(block.lm_col),)
    return _Table(index=(kept, np.intp), value=(kept, float),
                  grad_index=(d, np.intp), grad=(d, float), **columns)


class _IndexForm(NamedTuple):
    """Scatter index of a block's kept J^T J entries, then gradient position
    of its J^T r entries: ``const`` plus ``first`` and ``second`` times the
    slots of the factor's two variables, then the correction of the
    ``cross`` band entries (see ``_scatter_index``)."""

    const: np.ndarray
    first: np.ndarray
    second: np.ndarray
    cross: np.ndarray         # band entries coupling a between's two poses
    cross_offset: np.ndarray  # their column offset minus their row offset
    cross_scale: int
    kept: int                 # J^T J entries, before the J^T r entries


class _Residuals(NamedTuple):
    """Whitened residuals of every factor row from a first row on, at one
    estimate, and their total error."""

    error: float
    whitened: tuple        # between (n, 6), observation (n, 3) times scale
    terms: tuple           # per table the residual kernel's output, for its Jacobians
    scale: np.ndarray      # each observation row's scale at this estimate


class _BatchedFactors:
    """Growable struct-of-arrays storage of a FactorGraph, its per-row
    linearization store, and the vectorized kernels that run over them.

    Variables: ``pose_slot`` / ``lm_slot`` (key to slot, insertion order), and
    per variable the estimate ``x`` ((N, 7) poses, (M, 3) landmarks) and its
    linearization point ``lin`` (NaN until the first linearization). Factors:
    the tables ``between`` and ``observation``. A prior is a between row from
    the origin: ``anchored``, with the identity as its first pose, a zero
    Jacobian on that side and both slots its own pose's. ``observation`` has
    one row per plain or weighted observation and per mixture component, with
    ``s`` = sqrt(weight) (1 if not weighted; only ``FactorGraph._set_weights``
    rewrites it) and ``jac_s``, the scale of the stored Jacobian. Side
    indexes: ``components`` (each component's row and -log w, mixture by
    mixture), ``mixtures`` (each mixture's first component) and ``weighted``
    (each weighted row and its group number). Each factor row keeps its
    scatter ``index`` into the flat system buffer (see the module docstring)
    and its whitened Jacobian ``jac`` at the linearization points of its
    variables, or at the estimate for a row of a mixture of two or more
    components. ``value`` holds the row's kept J^T J entries, which
    ``linearize`` bins to the positions in ``index`` of the flat buffer, and
    ``grad`` its J^T r entries, binned to the positions in ``grad_index`` of
    the compact gradient: the only copy of either. ``sync`` appends the factors queued since the last sync,
    and recomputes every scatter index only when the layout changes: when
    the landmark capacity doubles or a between widens the band.
    ``changed_from`` is the first pose slot whose J^T J entries changed
    since the graph's kept factor was taken; ``linearize`` lowers it, a
    layout change sets it to 0.
    """

    def __init__(self):
        self.pose_slot: dict = {}
        self.lm_slot: dict = {}
        self.poses = _Table(x=((7,), float), lin=((7,), float))
        self.landmarks = _Table(x=((3,), float), lin=((3,), float))
        self.between = _table(_BETWEEN_BLOCK, i=((), np.intp), j=((), np.intp),
                              anchored=((), bool), r=((3, 3), float), t=((3,), float),
                              w=((6, 6), float), jac=((6, 12), float))
        self.observation = _table(_OBSERVATION_BLOCK, p=((), np.intp), l=((), np.intp),
                                  z=((3,), float), w=((3, 3), float), s=((), float),
                                  jac_s=((), float), jac=((3, 9), float))
        self.components = _Table(row=((), np.intp), nlw=((), float))
        self.mixtures = _Table(start=((), np.intp))
        self.weighted = _Table(row=((), np.intp), group=((), np.intp))
        self._weighted: list = []       # the weighted observation factors, as in ``weighted``
        self._groups: dict = {}         # group_id, or (row,) for none, -> group number
        self._synced = 0                # factors appended so far
        self._linearized = (0, 0)       # between and observation rows with a Jacobian, in _latest
        self._latest = None             # the latest system linearize returned
        self.changed_from = 0
        self._set_layout(band_rows=6, lm_capacity=0)

    # -- variables -----------------------------------------------------------

    def add_pose(self, key, pose: Pose3) -> None:
        self.pose_slot[key] = len(self.pose_slot)
        self.poses.extend(1, x=_row_from_pose(pose), lin=np.nan)

    def add_landmark(self, key, point: np.ndarray) -> None:
        self.lm_slot[key] = len(self.lm_slot)
        self.landmarks.extend(1, x=point, lin=np.nan)

    @property
    def layout(self) -> tuple:
        """(band_rows, lm_capacity): what every scatter index depends on."""
        return self.band_rows, self.lm_capacity

    @property
    def num_poses(self) -> int:
        return len(self.pose_slot)

    @property
    def num_lms(self) -> int:
        return len(self.lm_slot)

    # -- factors -------------------------------------------------------------

    def sync(self, factors: list) -> None:
        """Append ``factors[synced:]``."""
        poses, observations, mixtures = [], [], []
        for f in factors[self._synced:]:
            if isinstance(f, (PriorFactor, BetweenFactor)):
                poses.append(f)
            elif isinstance(f, MixtureObservationFactor):
                mixtures.append(f)
            else:  # ObservationFactor, including weighted
                observations.append(f)
        self._synced = len(factors)

        slot, lm_slot = self.pose_slot, self.lm_slot
        ends = [(f.pose_key,) * 2 if isinstance(f, PriorFactor) else (f.key_i, f.key_j)
                for f in poses]
        bt_i, bt_j = np.array([[slot[a], slot[b]] for a, b in ends], dtype=np.intp).reshape(-1, 2).T
        anchored = np.array([isinstance(f, PriorFactor) for f in poses], dtype=bool)
        gap = int(np.abs(bt_i - bt_j).max()) if poses else 0
        band_rows = max(self.band_rows, 6 * (gap + 1))
        if (band_rows, self.landmarks.capacity) != self.layout:
            self._set_layout(band_rows, self.landmarks.capacity)
            self._latest = None
            self.changed_from = 0
            for (table, _), form, variables in zip(self._tables(), self._forms,
                                                   self._row_variables()):
                for name, index in self._indexes(form, *(slots for _, slots in variables)).items():
                    table[name][:] = index

        if poses:
            means = [f.mean if a else f.relative for f, a in zip(poses, anchored)]
            self._append(self.between, self._forms[0], bt_i, bt_j, i=bt_i, j=bt_j,
                         anchored=anchored, r=quat_to_matrix([m.rotation for m in means]),
                         t=[m.translation for m in means], w=[f.sqrt_info for f in poses])
        if observations or mixtures:
            # a row per plain or weighted observation, then per mixture component
            rows = ([(f, f.landmark_key) for f in observations]
                    + [(f, key) for f in mixtures for key in f.landmark_keys])
            p = np.array([slot[f.pose_key] for f, _ in rows], dtype=np.intp)
            l = np.array([lm_slot[key] for _, key in rows], dtype=np.intp)
            first = len(self.observation)
            self._append(self.observation, self._forms[1], p, l,
                         p=p, l=l, z=[f.point for f, _ in rows],
                         w=[f.sqrt_info for f, _ in rows],
                         s=np.sqrt([getattr(f, "weight", 1.0) for f, _ in rows]))
            weighted = [(row, f) for row, f in enumerate(observations, first)
                        if isinstance(f, WeightedObservationFactor)]
            self._weighted += [f for _, f in weighted]
            self.weighted.extend(len(weighted), row=[row for row, _ in weighted], group=[
                self._groups.setdefault((row,) if f.group_id is None else f.group_id,
                                        len(self._groups)) for row, f in weighted])
            if mixtures:
                sizes = [len(f.landmark_keys) for f in mixtures]
                starts = len(self.components) + np.cumsum([0] + sizes[:-1])
                self.mixtures.extend(len(mixtures), start=starts)
                components = np.arange(first + len(observations), len(self.observation))
                self.components.extend(len(components), row=components,
                                       nlw=np.concatenate([f.neg_log_weights for f in mixtures]))

    def _tables(self):
        """The factor tables, in the order they are binned."""
        return (self.between, _BETWEEN_BLOCK), (self.observation, _OBSERVATION_BLOCK)

    def _append(self, table: _Table, form: "_IndexForm", first, second, **rows) -> None:
        table.extend(len(first), **self._indexes(form, first, second), **rows)

    def _indexes(self, form: "_IndexForm", first: np.ndarray, second: np.ndarray) -> dict:
        """The ``index`` and ``grad_index`` columns of the factors whose
        variables sit in slots ``first`` and ``second``."""
        index = self._scatter_index(form, first, second)
        return {"index": index[:, :form.kept], "grad_index": index[:, form.kept:]}

    def _set_layout(self, band_rows: int, lm_capacity: int) -> None:
        """Offsets of the flat buffer: C, then per pose column a record of
        band_rows band entries and 3K border entries (K = lm_capacity)."""
        self.band_rows = band_rows
        self.lm_capacity = lm_capacity
        lm_width = 3 * lm_capacity
        self._records_at = lm_width * lm_width
        self._stride = band_rows + lm_width
        self._forms = tuple(self._index_form(block) for _, block in self._tables())

    def _index_form(self, block: _Block) -> "_IndexForm":
        """The closed form of the scatter index of ``block``'s entries in this
        layout. A band entry A[b, a] (a <= b) sits at records + a * stride +
        b - a, a border entry B[a, c] at records + a * stride + band_rows + c
        and a C entry C[c, e] at c * 3K + e. The J^T r entry of landmark
        column c sits at c in the compact gradient, that of pose column a at
        3K + a. With a and b on the factor's first and second variable, each
        is a per-entry constant plus per-entry multiples of the two slots, as
        long as the band entries that couple a between's two poses have
        a <= b: as if its first pose came first."""
        stride, records = self._stride, self._records_at
        lm_width = 3 * self.lm_capacity
        ra, rb = block.rows % 6, block.cols % 6  # offsets in their variables
        sa, sb = block.rows >= 6, block.cols >= 6  # on the second variable
        kinds = [block.band, block.border, block.landmark]
        local = np.arange(len(block.lm_col))
        offset, on_second = local % 6, local >= 6
        const = np.concatenate([
            np.select(kinds, [records + ra * (stride - 1) + rb,
                              records + ra * stride + self.band_rows + rb,
                              ra * lm_width + rb]),
            np.where(block.lm_col, offset, lm_width + offset)])
        first = np.concatenate([np.select(kinds, [(6 * stride - 6) * ~sa + 6 * ~sb, 6 * stride, 0]),
                                6 * ~on_second])
        second = np.concatenate([
            np.select(kinds, [(6 * stride - 6) * sa + 6 * sb, 3, 3 * lm_width + 3]),
            np.where(on_second, np.where(block.lm_col, 3, 6), 0)])
        cross = np.flatnonzero(block.band & ~sa & sb)
        return _IndexForm(const, first, second, cross, (rb - ra)[cross], stride - 2,
                          len(block.kept))

    @staticmethod
    def _scatter_index(form: "_IndexForm", first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """Flat-buffer index of each kept J^T J entry, then compact-gradient
        position of each J^T r entry, (n, kept + d), of the factors whose
        variables sit in slots ``first`` and ``second``. A band entry that
        couples a between's two poses where the first pose's column a is the
        larger one moves by (stride - 2) * (b - a), from where the form puts
        it to A[a, b]."""
        index = form.const + first[:, None] * form.first + second[:, None] * form.second
        flip = np.flatnonzero(first >= second) if len(form.cross) else ()
        if len(flip):
            gap = 6 * (second[flip] - first[flip])[:, None] + form.cross_offset
            index[flip[:, None], form.cross] += form.cross_scale * np.minimum(gap, 0)
        return index

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
        out[:, 4:] = x[:, 4:] + np.einsum("nij,nj->ni", quat_to_matrix(q), dt)
        return out, lms + delta[n_pose:].reshape(-1, 3)

    # -- residuals -----------------------------------------------------------
    # The residual kernels run over the rows ``rows`` (a slice or an index
    # array) at the pose estimates ``x`` and landmark estimates ``lms``; what
    # they return is what the matching Jacobian kernel takes.

    def _between_residuals(self, x, lms, rows):
        bt = self.between
        xi = x[bt["i"][rows]]
        xi[bt["anchored"][rows]] = _IDENTITY  # a prior: a between from the origin
        xj = x[bt["j"][rows]]
        rot_ij, t_ij = relative_pose(xi[:, :4], xi[:, 4:], xj[:, :4], xj[:, 4:])
        return pose_residuals(bt["r"][rows], bt["t"][rows], rot_ij, t_ij), rot_ij, t_ij

    def _observation_residuals(self, x, lms, rows):
        ob = self.observation
        p = ob["p"][rows]
        return observation_residuals(x[p, :4], x[p, 4:], lms[ob["l"][rows]], ob["z"][rows])

    def _observation_scale(self, rw, start: int = 0):
        """The scale of each observation row from ``start`` on at their
        unscaled whitened residuals ``rw`` (see the module docstring), and the
        -log w total of the active components of the mixtures among them:
        NaN when a mixture has a NaN cost."""
        scale = self.observation["s"][start:].copy()
        rows, nlw, starts = self.components["row"], self.components["nlw"], self.mixtures["start"]
        if start and len(starts):  # the mixtures appended from ``start`` on
            first = np.searchsorted(rows[starts], start)
            at = starts[first] if first < len(starts) else len(rows)
            rows, nlw, starts = rows[at:] - start, nlw[at:], starts[first:] - at
        if not len(starts):
            return scale, 0.0
        mixed = rw[rows]
        costs = 0.5 * np.sum(mixed * mixed, axis=1) + nlw
        n = len(costs)
        cheapest = costs == np.repeat(np.minimum.reduceat(costs, starts),
                                      np.diff(starts, append=n))
        active = np.minimum.reduceat(np.where(cheapest, np.arange(n), n), starts)
        found = active[active < n]
        scale[rows] = 0.0
        scale[rows[found]] = 1.0
        return scale, float(nlw[found].sum()) if len(found) == len(active) else np.nan

    def error_only(self, state) -> _Residuals:
        """The whitened residuals and the total error at ``state``."""
        return self._residuals(state)

    def _residuals(self, state, start: tuple = (0, 0)) -> _Residuals:
        """Residuals of each table's rows from its entry of ``start`` on."""
        x, lms = state
        terms = (self._between_residuals(x, lms, slice(start[0], None)),
                 self._observation_residuals(x, lms, slice(start[1], None)))
        whitened = [np.einsum("nij,nj->ni", table["w"][first:], r[0])
                    for (table, _), first, r in zip(self._tables(), start, terms)]
        scale, log_weights = self._observation_scale(whitened[1], start[1])
        whitened[1] *= scale[:, None]
        total = 0.5 * sum(float(np.sum(rw * rw)) for rw in whitened) + log_weights
        return _Residuals(total, tuple(whitened), terms, scale)

    # -- linearization -------------------------------------------------------
    # The Jacobian kernels give the whitened Jacobians of the rows ``rows``
    # from their residual kernel's output at the rows' linearization points.

    def _between_jacobians(self, rows, r, rot_ij, t_ij):
        bt = self.between
        jac = np.concatenate(between_jacobians(r, rot_ij, t_ij), axis=2)
        jac[bt["anchored"][rows], :, :6] = 0.0
        return bt["w"][rows] @ jac

    def _observation_jacobians(self, rows, r, h, rot):
        ob = self.observation
        jac = ob["w"][rows] @ np.concatenate(observation_jacobians(rot, h), axis=2)
        return ob["jac_s"][rows, None, None] * jac

    def linearize(self, state, residuals: _Residuals | None = None, fresh: bool = False,
                  append: bool = False) -> "NormalEquations":
        """The Gauss-Newton system at ``state``, with its total error.

        Only these rows get a new Jacobian: rows appended since the last
        linearization, rows of a variable whose estimate moved more than
        RELINEARIZE_THRESHOLD (0 when ``fresh``) from its linearization point
        or has none yet, and observation rows whose scale at ``state``
        differs from the one their Jacobian was taken with. Such a
        variable's point first moves to its estimate; every Jacobian is taken
        at the points of its row's variables. The rows of a mixture of two or
        more components get a new Jacobian every time, at ``state``, its J^T J
        entries going to the row's ``value``. Each row's ``grad`` takes its
        J^T r entries, whose whitened residuals r are taken at ``state``:
        ``residuals`` when given (``error_only``'s result at ``state``), else
        computed here.

        A, B and C start from the latest system's (``_latest``) when no row
        it holds got a new Jacobian: its flat buffer as it is when nothing
        was appended and the graph has as many poses, else a copy with the
        appended rows' ``value`` added at their ``index``. Otherwise every
        row's ``value`` is added into a zeroed buffer. The gradient is the
        latest system's when ``append``, else zero, plus the ``grad`` of the
        rows from ``start`` on, added at their ``grad_index``. Rows are added
        in order, between rows first, as one ``np.bincount`` over both tables
        would add them.

        With ``append`` the latest system must be at ``state`` (what
        ``FactorGraph._current_system`` checks): only the rows appended since
        it are linearized, and its error is added to theirs. The system
        returned becomes ``_latest``, with a copy of ``state`` as its
        ``estimate``.
        """
        base = self._latest if append else None
        start = (0, 0) if base is None else self._linearized
        if base is not None or residuals is None:
            residuals = self._residuals(state, start)
        x, lms = state
        threshold = 0.0 if fresh else RELINEARIZE_THRESHOLD
        # per kind of variable (poses, landmarks): moved now, and at the estimate
        moved, at = zip(_relinearize_points(self.poses, x, threshold),
                        _relinearize_points(self.landmarks, lms, threshold))
        kernels = ((self._between_residuals, self._between_jacobians),
                   (self._observation_residuals, self._observation_jacobians))
        latest = self._latest
        relinearized, changed_from = 0, self.changed_from
        for (table, block), (residual_kernel, jacobian_kernel), variables, done, first, terms, \
                rw in zip(self._tables(), kernels, self._row_variables(), self._linearized, start,
                          residuals.terms, residuals.whitened):
            variables = [(kind, slots[first:]) for kind, slots in variables]
            redo = np.logical_or.reduce([moved[kind][slots] for kind, slots in variables])
            redo[done - first:] = True  # appended since the last linearization
            current = np.zeros(len(redo), dtype=bool)  # rows linearized at the estimate
            if table is self.observation:  # components that may switch, and rows whose scale changed
                if len(self.mixtures):
                    sizes = np.diff(self.mixtures["start"], append=len(self.components))
                    switching = self.components["row"][np.repeat(sizes > 1, sizes)] - first
                    current[switching[switching >= 0]] = True
                redo |= current | (residuals.scale != table["jac_s"][first:])
                table["jac_s"][first:] = residuals.scale
            rows = np.flatnonzero(redo)
            if len(rows):
                terms = [a[rows] for a in terms]
                lagged = ~(current[rows] | np.logical_and.reduce([at[kind][slots[rows]]
                                                                  for kind, slots in variables]))
                changed_from = min([changed_from] + [int(slots[rows].min())
                                                     for kind, slots in variables if kind == 0])
                rows += first
                if rows[0] < done:  # a row whose J^T J the latest system holds
                    latest = None
                if lagged.any():  # rows with a point away from the estimate
                    for a, b in zip(terms, residual_kernel(
                            self.poses["lin"], self.landmarks["lin"], rows[lagged])):
                        a[lagged] = b
                if len(rows) == len(table):  # every row: views rather than copies
                    rows = slice(None)
                table["jac"][rows] = jac = jacobian_kernel(rows, *terms)
                table["value"][rows] = _kept_products(jac, block)
                relinearized += len(jac)
            np.einsum("nij,ni->nj", table["jac"][first:], rw, out=table["grad"][first:])
        self.changed_from = changed_from

        n_pose, n_lm = 6 * self.num_poses, 3 * self.num_lms
        lm_width = 3 * self.lm_capacity
        size = self._records_at + n_pose * self._stride
        held = self._linearized if latest is not None else (0, 0)  # rows the latest system holds
        self._linearized = tuple(len(table) for table, _ in self._tables())
        if latest is not None and held == self._linearized and len(latest.flat) == size:
            flat = latest.flat
        else:
            flat = np.zeros(size)
            if latest is not None:  # a prefix: pose records are appended at its end
                flat[:len(latest.flat)] = latest.flat
            for (table, _), first in zip(self._tables(), held):
                np.add.at(flat, table["index"][first:].ravel(), table["value"][first:].ravel())

        grad, error = np.zeros(lm_width + n_pose), residuals.error  # landmarks first
        if base is not None:
            base_pose = base.band.shape[1]
            grad[:len(base.landmark)] = base.grad[base_pose:]
            grad[lm_width:lm_width + base_pose] = base.grad[:base_pose]
            error += base.error
        for (table, _), first in zip(self._tables(), start):
            np.add.at(grad, table["grad_index"][first:].ravel(), table["grad"][first:].ravel())
        records = flat[self._records_at:].reshape(n_pose, self._stride)
        self._latest = system = NormalEquations(
            band=records[:, :self.band_rows].T,
            border=records[:, self.band_rows:self.band_rows + n_lm],
            landmark=flat[:self._records_at].reshape(lm_width, lm_width)[:n_lm, :n_lm],
            grad=np.concatenate([grad[lm_width:], grad[:n_lm]]),
            fresh=bool(at[0].all() and at[1].all()), relinearized=relinearized, error=error,
            flat=flat, estimate=(x.copy(), lms.copy()))
        return system

    def _row_variables(self):
        """Per table of ``_tables``, its rows' variables as (0 for a pose
        or 1 for a landmark, slot column) pairs."""
        return (((0, self.between["i"]), (0, self.between["j"])),
                ((0, self.observation["p"]), (1, self.observation["l"])))


def em_reweight(graph: FactorGraph, lm_config: LMConfig | None = None) -> OptimizeReport:
    """One E step (recompute association weights) and one M step (optimize).

    Weights of each weighted-observation group are set proportional to the
    marginal measurement likelihood at the current estimates, using the
    innovation covariance frozen at insertion time (falls back to the
    measurement covariance when absent).
    """
    batch = graph._batched()
    if not batch._weighted:
        return graph.optimize(lm_config)
    # stable-sort by group so each group is one contiguous segment
    order = np.argsort(batch.weighted["group"], kind="stable")
    starts = np.flatnonzero(np.diff(batch.weighted["group"][order], prepend=-1))
    rows = batch.weighted["row"][order]
    weighted = [batch._weighted[i] for i in order.tolist()]

    covs = np.array([f.innovation_cov if f.innovation_cov is not None else f.gamma
                     for f in weighted])
    try:
        chol = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("innovation covariance must be SPD") from exc
    log_norm = -np.log(np.einsum("mkk->mk", chol)).sum(axis=1)

    r = batch._observation_residuals(*batch.state(), rows)[0]
    y = np.linalg.solve(chol, r[..., None])[..., 0]
    logs = -0.5 * np.einsum("mk,mk->m", y, y) + log_norm
    graph._set_weights(order, _group_weights(logs, starts))
    return graph.optimize(lm_config)


def _group_weights(logs: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """exp(logs) normalized within each group, the segment of ``logs`` from
    one entry of ``starts`` to the next; then floored at 1e-12 and normalized
    again."""
    sizes = np.diff(starts, append=len(logs))

    def per_group(reduce, a):
        return np.repeat(reduce.reduceat(a, starts), sizes)

    w = np.exp(logs - per_group(np.maximum, logs))
    w = np.maximum(w / per_group(np.add, w), 1e-12)
    return w / per_group(np.add, w)
