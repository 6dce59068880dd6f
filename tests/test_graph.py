import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from objectslam import factors as fx
from objectslam import graph as gr
from objectslam.errors import DataFormatError, NumericalError
from objectslam.geometry import Pose3, compose, inverse, local, retract
from oracles import (Values, factor_error, factor_linearize, graph_error, graph_summary,
                     graph_values, scatter_index_reference, unanchored_groups)

from test_geometry import random_pose

PRIOR_SIGMA = np.eye(6) * 1e-6


def chain_poses(rng, n):
    poses = [Pose3.identity()]
    for _ in range(n - 1):
        step = Pose3.from_tangent(np.concatenate([rng.uniform(-0.3, 0.3, 3),
                                                  rng.uniform(-0.5, 0.5, 3)]))
        poses.append(compose(poses[-1], step))
    return poses


def build_chain_graph(poses, perturb=None, rng=None):
    g = gr.FactorGraph()
    for k, p in enumerate(poses):
        init = p if perturb is None else retract(p, rng.normal(scale=perturb, size=6))
        g.add_pose(k, poses[0] if k == 0 else init)
    g.add_factor(fx.PriorFactor(0, poses[0], PRIOR_SIGMA))
    for k in range(len(poses) - 1):
        rel = compose(inverse(poses[k]), poses[k + 1])
        g.add_factor(fx.BetweenFactor(k, k + 1, rel, np.eye(6) * 1e-4))
    return g


def test_prior_only_graph_at_mean():
    g = gr.FactorGraph()
    g.add_pose(0, Pose3.identity())
    g.add_factor(fx.PriorFactor(0, Pose3.identity(), np.eye(6) * 0.01))
    report = g.optimize()
    assert report.iterations == 0
    assert report.converged
    assert report.final_error == pytest.approx(0.0, abs=1e-12)


def test_optimize_reports_why_it_stopped(monkeypatch):
    # A graph at its prior's mean has no gradient. The structured graph's
    # mixtures leave a gradient above GRADIENT_TOL at its optimum, so it stops
    # when a step barely lowers the error. A 1-iteration solve of a perturbed
    # chain is cut off. A solve whose every trial step is NaN finds no
    # acceptable step before lambda passes MAX_LAMBDA.
    g = gr.FactorGraph()
    g.add_pose(0, Pose3.identity())
    g.add_factor(fx.PriorFactor(0, Pose3.identity(), np.eye(6) * 0.01))
    report = g.optimize()
    assert (report.stop_reason, report.converged, report.iterations) == ("gradient", True, 0)

    report = structured_graph(np.random.default_rng(0)).optimize()
    assert (report.stop_reason, report.converged) == ("relative decrease", True)
    assert report.gradient_norm >= gr.GRADIENT_TOL

    rng = np.random.default_rng(3)
    g = build_chain_graph(chain_poses(rng, 4), perturb=0.05, rng=rng)
    report = g.optimize(gr.LMConfig(max_iterations=1))
    assert (report.stop_reason, report.converged, report.iterations) == ("max_iterations", False, 1)
    assert (report.final_lambda, report.rejected_steps) == (0.0, 0)

    original = gr._BatchedFactors.retract

    def nan_retract(self, state, delta):
        x, lms = original(self, state, delta)
        return np.full_like(x, np.nan), lms

    monkeypatch.setattr(gr._BatchedFactors, "retract", nan_retract)
    report = g.optimize()
    assert (report.stop_reason, report.converged, report.iterations) == (
        "no acceptable step", False, 0)
    lam, tried = 0.0, 0  # the damping schedule, up to MAX_LAMBDA
    while lam <= gr.MAX_LAMBDA:
        lam, tried = lam * gr.LAMBDA_SCALE if lam else gr.INIT_LAMBDA, tried + 1
    assert (report.final_lambda, report.rejected_steps) == (lam, tried)


def test_chain_recovers_ground_truth():
    rng = np.random.default_rng(0)
    poses = chain_poses(rng, 3)
    g = build_chain_graph(poses, perturb=0.05, rng=rng)
    report = g.optimize()
    assert report.final_error <= report.initial_error
    assert report.final_error < 1e-12
    for k, want in enumerate(poses):
        # oracle: exact chain composition of the noiseless relatives
        assert np.linalg.norm(local(g.poses[k], want)) < 1e-6


def test_noiseless_loop_with_landmarks():
    rng = np.random.default_rng(1)
    n = 12
    angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
    gt_poses = [Pose3(np.array([np.cos(a / 2), 0, 0, np.sin(a / 2)]),
                      np.array([np.cos(a), np.sin(a), 0.0])) for a in angles]
    landmarks = {0: np.array([0.5, 0.0, 0.2]), 1: np.array([-0.3, 0.4, 0.0]),
                 2: np.array([0.0, -0.6, 0.1])}

    g = gr.FactorGraph()
    drift = np.zeros(6)
    for k, p in enumerate(gt_poses):
        if k > 0:
            drift = drift + rng.normal(scale=0.01, size=6)
        g.add_pose(k, retract(p, drift))
    g.add_factor(fx.PriorFactor(0, gt_poses[0], PRIOR_SIGMA))
    for k in range(n - 1):
        rel = compose(inverse(gt_poses[k]), gt_poses[k + 1])
        g.add_factor(fx.BetweenFactor(k, k + 1, rel, np.eye(6) * 1e-4))
    for j, lm in landmarks.items():
        g.add_landmark(j, lm + rng.normal(scale=0.05, size=3))
        for k, p in enumerate(gt_poses):
            z = inverse(p).apply(lm)
            g.add_factor(fx.ObservationFactor(k, j, z, np.eye(3) * 1e-4))

    report = g.optimize()
    assert report.final_error <= report.initial_error
    for j, lm in landmarks.items():
        assert np.linalg.norm(g.landmarks[j] - lm) < 1e-5


def test_optimize_requires_prior():
    g = gr.FactorGraph()
    g.add_pose(0, Pose3.identity())
    g.add_pose(1, Pose3.identity())
    g.add_factor(fx.BetweenFactor(0, 1, Pose3.identity(), np.eye(6) * 0.01))
    with pytest.raises(NumericalError):
        g.optimize()


def test_optimize_requires_connectivity():
    g = gr.FactorGraph()
    g.add_pose(0, Pose3.identity())
    g.add_factor(fx.PriorFactor(0, Pose3.identity(), np.eye(6) * 0.01))
    g.add_landmark(5, np.zeros(3))  # dangling landmark
    with pytest.raises(NumericalError):
        g.optimize()


def test_gauge_check_counts_the_groups_without_a_prior():
    # 6 poses, a prior on 0, a between 2-3 and a one-component mixture from
    # pose 4 to landmark 7: {1}, {2, 3}, {4, l7} and {5} hold no prior
    g = gr.FactorGraph()
    for k in range(6):
        g.add_pose(k, Pose3.identity())
    g.add_landmark(7, np.ones(3))
    g.add_factor(fx.PriorFactor(0, Pose3.identity(), np.eye(6) * 0.01))
    g.add_factor(fx.BetweenFactor(2, 3, Pose3.identity(), np.eye(6) * 0.01))
    g.add_factor(fx.MixtureObservationFactor(4, [7], np.ones(3), np.eye(3) * 0.01, [1.0]))
    assert unanchored_groups(g) == 4
    with pytest.raises(NumericalError, match=r"^4 group\(s\) of variables"):
        g.optimize()


def check_gauge(g) -> int:
    """The gauge check of an optimize against the breadth-first oracle; the
    oracle's count of groups without a prior."""
    groups = unanchored_groups(g)
    if not any(isinstance(f, fx.PriorFactor) for f in g.factors):
        with pytest.raises(NumericalError, match="no prior"):
            g.optimize()
    elif groups:
        with pytest.raises(NumericalError, match=rf"^{groups} group\(s\) of variables"):
            g.optimize()
    else:  # the gauge check passes; a rank-deficient system may still fail later
        try:
            g.optimize(gr.LMConfig(max_iterations=1))
        except NumericalError as exc:
            assert "prior" not in str(exc)
    return groups


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_poses=st.integers(1, 6), n_landmarks=st.integers(0, 4))
def test_gauge_check_matches_breadth_first_oracle(seed, n_poses, n_landmarks):
    # Random small graphs: variables with and without factors, priors on some
    # poses only, betweens, and plain, weighted and mixture observations
    # (a mixture of two or more components joins its landmarks' groups).
    # Each graph then grows across several checks, each of which passes only
    # over the rows appended since the last passing one: anchored whole, then
    # one or two unconnected poses or landmarks (a failing check), then those
    # linked to each other and to the rest or given a prior (a passing one).
    rng = np.random.default_rng(seed)
    g = gr.FactorGraph()
    poses, lms = list(range(n_poses)), list(range(10, 10 + n_landmarks))
    for k in poses:
        g.add_pose(k, random_pose(rng))
    for j in lms:
        g.add_landmark(j, rng.normal(size=3))
    gamma = np.eye(3) * 0.01

    def observe(k, j):
        kind = rng.choice(["plain", "weighted", "mixture"])
        if kind == "mixture":
            others = [o for o in lms if o != j]
            keys = [j] + rng.choice(others, size=rng.integers(0, len(others) + 1),
                                    replace=False).tolist()
            g.add_factor(fx.MixtureObservationFactor(k, keys, rng.normal(size=3), gamma,
                                                     np.full(len(keys), 1.0 / len(keys))))
        else:
            g.add_factor(fx.ObservationFactor(k, j, rng.normal(size=3), gamma) if kind == "plain"
                         else fx.WeightedObservationFactor(k, j, rng.normal(size=3), gamma,
                                                           rng.uniform(0.1, 1.0)))

    for k in poses:
        if rng.random() < 0.25:
            g.add_factor(fx.PriorFactor(k, random_pose(rng), np.eye(6) * 0.01))
    for _ in range(rng.integers(0, n_poses + 1)):
        i, j = rng.integers(n_poses, size=2)
        if i != j:
            g.add_factor(fx.BetweenFactor(int(i), int(j), random_pose(rng), np.eye(6) * 0.01))
    for _ in range(rng.integers(0, 2 * n_landmarks + 1)):
        observe(int(rng.integers(n_poses)), int(rng.choice(lms)))
    if check_gauge(g):
        for k in poses:
            g.add_factor(fx.PriorFactor(k, random_pose(rng), np.eye(6) * 0.01))
        for j in lms:
            observe(0, j)
        assert check_gauge(g) == 0

    def link(a, b):
        (kind_a, a), (kind_b, b) = sorted([a, b])  # "l" before "x"
        if kind_a == kind_b == "x":
            g.add_factor(fx.BetweenFactor(a, b, random_pose(rng), np.eye(6) * 0.01))
        elif kind_b == "x":
            observe(b, a)
        else:  # two landmarks: one mixture from an anchored pose
            g.add_factor(fx.MixtureObservationFactor(poses[0], [a, b], rng.normal(size=3),
                                                     gamma, [0.5, 0.5]))

    for first in (100, 102, 104):
        new = []
        for key in range(first, first + rng.integers(1, 3)):
            if rng.random() < 0.5:
                new.append(("x", key))
                g.add_pose(key, random_pose(rng))
            else:
                new.append(("l", key))
                g.add_landmark(key, rng.normal(size=3))
        assert check_gauge(g) == len(new)
        for a, b in zip(new, new[1:]):
            link(a, b)
        if new[0][0] == "x" and rng.random() < 0.3:
            g.add_factor(fx.PriorFactor(new[0][1], random_pose(rng), np.eye(6) * 0.01))
        else:
            link(new[0], ("x", int(rng.choice(poses))))
        assert check_gauge(g) == 0
        poses += [key for kind, key in new if kind == "x"]
        lms += [key for kind, key in new if kind == "l"]


def test_gauge_check_passes_once_the_connecting_factors_arrive():
    # the check reads the factors present at each call, not those of an
    # earlier one: no prior, then pose 1 and landmark 3 left apart, then joined
    g = gr.FactorGraph()
    g.add_pose(0, Pose3.identity())
    g.add_pose(1, Pose3.identity())
    g.add_landmark(3, np.ones(3))
    g.add_factor(fx.ObservationFactor(1, 3, np.ones(3), np.eye(3) * 0.01))
    with pytest.raises(NumericalError, match="no prior"):
        g.optimize()
    g.add_factor(fx.PriorFactor(0, Pose3.identity(), np.eye(6) * 0.01))
    with pytest.raises(NumericalError, match=r"^1 group\(s\) of variables"):
        g.optimize()
    g.add_factor(fx.BetweenFactor(0, 1, Pose3.identity(), np.eye(6) * 0.01))
    assert g.optimize().converged


@pytest.mark.parametrize("kind", ["pose", "landmark"])
def test_gauge_check_fails_once_an_unconnected_variable_arrives(kind):
    g = build_chain_graph(chain_poses(np.random.default_rng(6), 3))
    assert g.optimize().converged
    if kind == "pose":
        g.add_pose(3, Pose3.identity())
    else:
        g.add_landmark(0, np.ones(3))
    with pytest.raises(NumericalError, match=r"^1 group\(s\) of variables"):
        g.optimize()
    g.add_landmark(1, np.ones(3))  # a second group, on its own
    with pytest.raises(NumericalError, match=r"^2 group\(s\) of variables"):
        g.optimize()


def test_error_never_increases_random_suite():
    rng = np.random.default_rng(2)
    for trial in range(10):
        poses = chain_poses(rng, 6)
        g = build_chain_graph(poses, perturb=0.1, rng=rng)
        report = g.optimize()
        assert report.final_error <= report.initial_error + 1e-12


def test_optimize_deterministic():
    def build_and_run():
        rng = np.random.default_rng(3)
        poses = chain_poses(rng, 8)
        g = build_chain_graph(poses, perturb=0.08, rng=rng)
        return g.optimize(), g

    r1, g1 = build_and_run()
    r2, g2 = build_and_run()
    assert r1 == r2
    for k in g1.poses:
        assert np.array_equal(g1.poses[k].rotation, g2.poses[k].rotation)
        assert np.array_equal(g1.poses[k].translation, g2.poses[k].translation)


def test_marginal_single_prior():
    sigma0 = np.diag([0.01, 0.02, 0.03, 0.04, 0.05, 0.06])
    g = gr.FactorGraph()
    g.add_pose(0, Pose3.identity())
    g.add_factor(fx.PriorFactor(0, Pose3.identity(), sigma0))
    assert np.allclose(g.joint_covariance(0, []), sigma0, atol=1e-9)


def test_marginal_two_priors_information_additivity():
    sigma0 = np.diag([0.01, 0.02, 0.03, 0.04, 0.05, 0.06])
    g = gr.FactorGraph()
    g.add_pose(0, Pose3.identity())
    g.add_factor(fx.PriorFactor(0, Pose3.identity(), sigma0))
    g.add_factor(fx.PriorFactor(0, Pose3.identity(), sigma0))
    assert np.allclose(g.joint_covariance(0, []), sigma0 / 2, atol=1e-9)


def test_joint_marginal_spd_and_symmetric():
    rng = np.random.default_rng(4)
    poses = chain_poses(rng, 5)
    g = build_chain_graph(poses)
    g.add_landmark(0, np.array([0.5, 0.5, 0.0]))
    for k in range(5):
        z = inverse(poses[k]).apply(np.array([0.5, 0.5, 0.0]))
        g.add_factor(fx.ObservationFactor(k, 0, z, np.eye(3) * 0.01))
    g.optimize()
    block = g.joint_marginals(4, [0])[0]
    assert block.shape == (9, 9)
    assert np.allclose(block, block.T, atol=1e-9)
    np.linalg.cholesky(block)  # SPD check

    with pytest.raises(ValueError):
        g.joint_marginals(99, [0])
    with pytest.raises(ValueError):  # only the pose in the last slot has marginals
        g.joint_marginals(3, [0])


def test_gauge_full_rank_with_single_prior():
    rng = np.random.default_rng(5)
    poses = chain_poses(rng, 6)
    g = build_chain_graph(poses, perturb=0.02, rng=rng)
    g.optimize()
    batch = g._batched()
    # Cholesky of the dense information succeeds -> full rank at convergence
    info, _ = dense_normal_equations(g, batch)
    np.linalg.cholesky(info)


# -- assembly and solver oracles ---------------------------------------------

def columns(batch, kind, key):
    """System columns of a pose ("x") or landmark ("l") variable."""
    if kind == "x":
        return 6 * batch.pose_slot[key] + np.arange(6)
    return 6 * batch.num_poses + 3 * batch.lm_slot[key] + np.arange(3)


def dense_normal_equations(g, batch, at=None, lin=None, absolute=False):
    """Dense J^T J and J^T r stacked from each factor's factor_linearize(): the
    residuals at the estimates ``at`` and the Jacobians at ``lin`` (Values;
    both default to the graph's estimates). A mixture of two or more
    components is linearized at ``at``.
    ``absolute`` stacks |J|^T |J| and |J|^T |r|, the scale of the rounding."""
    at = at or graph_values(g)
    lin = lin or at
    n = 6 * batch.num_poses + 3 * batch.num_lms
    info = np.zeros((n, n))
    grad = np.zeros(n)
    for f in g.factors:
        r, _ = factor_linearize(f, at)
        switches = isinstance(f, fx.MixtureObservationFactor) and len(f.landmark_keys) > 1
        _, jacobians = factor_linearize(f, at if switches else lin)
        jac = np.zeros((len(r), n))
        for (kind, key), block in jacobians.items():
            jac[:, columns(batch, kind, key)] += block
        if absolute:
            jac, r = np.abs(jac), np.abs(r)
        info += jac.T @ jac
        grad += jac.T @ r
    return info, grad


def values_at(batch, x, lms):
    """Values holding the rows ``x`` (N, 7) and ``lms`` (M, 3) by key."""
    return Values({k: gr._pose_from_row(x[s]) for k, s in batch.pose_slot.items()},
                  {k: lms[s] for k, s in batch.lm_slot.items()})


def band_to_dense(band):
    """Symmetric matrix from its lower band, band[r - c, c] = A[r, c]."""
    n = band.shape[1]
    out = np.zeros((n, n))
    for k, diagonal in enumerate(band):
        idx = np.arange(n - k)
        out[idx + k, idx] = diagonal[:n - k]
        out[idx, idx + k] = diagonal[:n - k]
    return out


def dense_system(system):
    """[[A, B], [B^T, C]] of a NormalEquations, dense."""
    return np.block([[band_to_dense(system.band), system.border],
                     [system.border.T, system.landmark]])


def rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def structured_graph(rng, with_landmarks=True):
    """Poses at non-contiguous keys: two priors on one pose, chain betweens (one
    with key_i > key_j), a loop closure five slots long, and plain, weighted and
    mixture observations; every estimate is off its measurement."""
    keys = [0, 2, 5, 7, 8, 11]
    poses = {k: random_pose(rng) for k in keys}
    g = gr.FactorGraph()
    for k, p in poses.items():
        g.add_pose(k, retract(p, rng.normal(scale=0.05, size=6)))
    sigma = np.eye(6) * 1e-2
    g.add_factor(fx.PriorFactor(2, poses[2], sigma))
    g.add_factor(fx.PriorFactor(2, retract(poses[2], rng.normal(scale=0.1, size=6)), sigma * 4))
    for a, b in [(0, 2), (2, 5), (5, 7), (8, 7), (8, 11), (0, 11)]:
        rel = compose(inverse(poses[a]), poses[b])
        g.add_factor(fx.BetweenFactor(a, b, retract(rel, rng.normal(scale=0.02, size=6)),
                                      np.diag(rng.uniform(1e-3, 1e-2, 6))))
    if not with_landmarks:
        return g
    points = {3: rng.normal(size=3), 10: rng.normal(size=3), 4: rng.normal(size=3)}
    for j, p in points.items():
        g.add_landmark(j, p + rng.normal(scale=0.05, size=3))

    def gamma():  # anisotropic, so C has off-diagonal entries
        return np.diag(rng.uniform(1e-2, 4e-2, 3))

    for k in keys:
        z = inverse(poses[k]).apply(points[3]) + rng.normal(scale=0.05, size=3)
        g.add_factor(fx.ObservationFactor(k, 3, z, gamma()))
    for k in (0, 5, 11):
        for j, w in ((10, 0.7), (4, 0.3)):
            z = inverse(poses[k]).apply(points[j]) + rng.normal(scale=0.05, size=3)
            g.add_factor(fx.WeightedObservationFactor(k, j, z, gamma(), w, group_id=k))
    for k in (2, 7, 8):
        z = inverse(poses[k]).apply(points[10]) + rng.normal(scale=0.05, size=3)
        g.add_factor(fx.MixtureObservationFactor(k, [10, 4], z, gamma(), [0.6, 0.4]))
    return g


def test_assembly_matches_scalar_factor_oracle():
    g = structured_graph(np.random.default_rng(9))
    batch = g._batched()
    assert batch.band_rows == 36  # the (0, 11) loop closure spans five pose slots
    system = batch.linearize(batch.state())
    info, grad = dense_normal_equations(g, batch)
    n_pose = 6 * len(g.poses)
    assert system.error == pytest.approx(graph_error(g), rel=1e-12)
    assert rel_err(band_to_dense(system.band), info[:n_pose, :n_pose]) < 1e-12
    assert rel_err(system.border, info[:n_pose, n_pose:]) < 1e-12
    assert rel_err(system.landmark, info[n_pose:, n_pose:]) < 1e-12
    assert rel_err(system.grad, grad) < 1e-12


def test_error_matches_scalar_factor_sum():
    g = structured_graph(np.random.default_rng(16))
    values = graph_values(g)
    want = sum(factor_error(f, values) for f in g.factors)
    assert graph_error(g) == pytest.approx(want, rel=1e-12)
    assert graph_summary(g)["total_error"] == pytest.approx(want, rel=1e-12)


def check_storage(g):
    """The system assembled from the graph's maintained storage equals the
    dense one stacked from each factor's factor_linearize()."""
    batch = g._batched()
    system = batch.linearize(batch.state(), fresh=True)
    info, grad = dense_normal_equations(g, batch)
    want = sum(factor_error(f, graph_values(g)) for f in g.factors)
    assert system.error == pytest.approx(want, rel=1e-12)
    assert rel_err(dense_system(system), info) < 1e-12
    assert rel_err(system.grad, grad) < 1e-12


def flip_weights(g):
    """Give every weighted observation the weight 1 - w, through the graph's
    one weight writer."""
    batch = g._batched()
    g._set_weights(np.arange(len(batch._weighted)),
                   1.0 - np.array([f.weight for f in batch._weighted]))


def scripted_run(g):
    """Drive g through appends like an online run's: non-contiguous pose keys,
    a loop closure that widens the band, landmarks added mid-run across
    landmark capacity doublings, plain, weighted and mixture observations, and
    a weight flip. Yields (step, event) after each change to the graph."""
    rng = np.random.default_rng(17)
    keys = [0, 3, 4, 7, 9, 10, 12, 15, 16, 20, 21, 25, 26, 30]
    truth = dict(zip(keys, chain_poses(rng, len(keys))))
    points = {}

    def observe(k, j):
        return inverse(truth[k]).apply(points[j]) + rng.normal(scale=0.02, size=3)

    def gamma():
        return np.diag(rng.uniform(1e-3, 4e-3, 3))

    g.add_pose(0, retract(truth[0], rng.normal(scale=0.02, size=6)))
    g.add_factor(fx.PriorFactor(0, truth[0], PRIOR_SIGMA))
    yield -1, "prior"
    for step, (prev, k) in enumerate(zip(keys, keys[1:])):
        g.add_pose(k, retract(truth[k], rng.normal(scale=0.02, size=6)))
        rel = compose(inverse(truth[prev]), truth[k])
        g.add_factor(fx.BetweenFactor(prev, k, rel, np.eye(6) * 1e-4))
        yield step, "pose"
        if step % 2 == 0:  # a new landmark, observed from here on
            j = 100 + step
            points[j] = truth[k].apply(rng.uniform(-1.0, 1.0, 3))
            g.add_landmark(j, points[j] + rng.normal(scale=0.05, size=3))
            yield step, "landmark"
        old = sorted(points)[:-1]
        g.add_factor(fx.ObservationFactor(k, max(points), observe(k, max(points)), gamma()))
        if len(old) >= 2:
            a, b = rng.choice(old, size=2, replace=False)
            z = observe(k, a)  # one detection, two candidate landmarks
            g.add_factor(fx.WeightedObservationFactor(k, a, z, gamma(), 0.7, group_id=step))
            g.add_factor(fx.WeightedObservationFactor(k, b, z, gamma(), 0.3, group_id=step))
            g.add_factor(fx.MixtureObservationFactor(k, [a, b], observe(k, b), gamma(),
                                                     [0.4, 0.6]))
        yield step, "observations"
        if step == 6:  # loop closure back to the first pose
            rel = compose(inverse(truth[0]), truth[k])
            g.add_factor(fx.BetweenFactor(0, k, rel, np.eye(6) * 1e-4))
            yield step, "loop closure"
        if step == 9:
            flip_weights(g)
            yield step, "weight flip"


def test_table_extend_keeps_every_row_across_a_capacity_doubling():
    table = gr._Table(a=((), np.intp), b=((2, 3), float))
    rows = [(np.arange(n), np.random.default_rng(n).normal(size=(n, 2, 3))) for n in (3, 1, 5)]
    kept_a, kept_b = [], []
    for a, b in rows:
        views = table["a"], table["b"]
        table.extend(len(a), a=a)  # b is left for the caller, as linearize fills it
        table["b"][-len(a):] = b
        assert np.array_equal(table["a"][:len(views[0])], views[0])  # row numbers stable
        assert np.array_equal(table["b"][:len(views[1])], views[1])
        kept_a.append(a)
        kept_b.append(b)
    assert len(table) == 9 and table.capacity >= 9
    assert np.array_equal(table["a"], np.concatenate(kept_a))
    assert np.array_equal(table["b"], np.concatenate(kept_b))


def test_maintained_storage_matches_scratch_assembly():
    # The storage is checked after every step of the scripted run, with an
    # optimize at the end of every third step.
    g = gr.FactorGraph()
    lm_config = gr.LMConfig(max_iterations=2)
    for step, event in scripted_run(g):
        check_storage(g)
        if event == "loop closure":
            assert g._batched().band_rows == 6 * (step + 2)
        if event == "observations" and step % 3 == 2:  # no later event in these steps
            g.optimize(lm_config)
            check_storage(g)
    assert g._batched().lm_capacity == 8 > len(g.landmarks) > 4


def check_scatter_index(g):
    """Every stored scatter index and gradient position equals the mask-built
    reference."""
    batch = g._batched()
    bt, ob = batch.between, batch.observation
    offsets = np.arange(6)
    bt_cols = np.concatenate([6 * bt["i"][:, None] + offsets, 6 * bt["j"][:, None] + offsets],
                             axis=1)
    ob_cols = np.concatenate([6 * ob["p"][:, None] + offsets, 3 * ob["l"][:, None] + offsets[:3]],
                             axis=1)
    for table, block, cols in ((bt, gr._BETWEEN_BLOCK, bt_cols),
                               (ob, gr._OBSERVATION_BLOCK, ob_cols)):
        index, grad_index = scatter_index_reference(batch, block, cols)
        assert np.array_equal(table["index"], index)
        assert np.array_equal(table["grad_index"], grad_index)


def test_closed_form_scatter_index_matches_mask_reference():
    # Over every layout of the scripted run (band widenings, landmark
    # capacity doublings) and the structured graph, whose betweens include
    # priors (both slots the same) and one whose first pose is the later one.
    g = gr.FactorGraph()
    layouts = set()
    for _ in scripted_run(g):
        check_scatter_index(g)
        layouts.add(g._batch.layout)
    assert layouts == {(6, 0), (12, 0), (12, 1), (12, 2), (12, 4), (48, 4), (48, 8)}
    g = structured_graph(np.random.default_rng(9))
    check_scatter_index(g)
    bt = g._batch.between
    assert (bt["i"] > bt["j"]).any() and (bt["anchored"] & (bt["i"] == bt["j"])).sum() == 2


def count_linearize(monkeypatch):
    """Record (state, whether every between (priors included) and observation row got a
    new Jacobian, error, system, the linearization points after the call) of
    every linearize call, as copies: ``optimize`` passes views of the stored
    estimates, which it overwrites when it returns."""
    calls = []
    original = gr._BatchedFactors.linearize

    def counting(self, state, residuals=None, fresh=False, append=False):
        system = original(self, state, residuals, fresh, append)
        rows = len(self.between) + len(self.observation)
        lin = (self.poses["lin"].copy(), self.landmarks["lin"].copy())
        calls.append((tuple(a.copy() for a in state), system.relinearized == rows,
                      system.error, system, lin))
        return system

    monkeypatch.setattr(gr._BatchedFactors, "linearize", counting)
    return calls


def lagged_oracle(g, state, lin):
    """Error, dense system and gradient at the estimates ``state``, stacked from
    each factor's factor_linearize() with the Jacobians at the linearization
    points ``lin``."""
    batch = g._batch
    at = values_at(batch, *state)
    info, grad = dense_normal_equations(g, batch, at, values_at(batch, *lin))
    return sum(factor_error(f, at) for f in g.factors), info, grad


def test_optimize_appends_to_the_kept_system(monkeypatch):
    # An optimize after every change of the scripted run, and after no change
    # at all. Its first system equals the scalar oracle with each row's
    # Jacobian at its variables' linearization points and its residual at the
    # current estimate. Every row gets a new Jacobian only when no row
    # linearized before is left: at the first optimize, and when every old row
    # touches a variable that moved. A wider band or a doubled landmark
    # capacity only re-indexes. After no change, optimize linearizes nothing
    # before its first step: it starts from the kept system.
    calls = count_linearize(monkeypatch)
    factored = []  # (linearize calls made so far, system) of each kept factorization
    keep_factor = gr.FactorGraph._keep_factor

    def recording(self, system):
        factored.append((len(calls), system))
        return keep_factor(self, system)

    monkeypatch.setattr(gr.FactorGraph, "_keep_factor", recording)
    g = gr.FactorGraph()
    lm_config = gr.LMConfig(max_iterations=2)
    layout, runs = None, []

    def optimize_and_check(step, event):
        nonlocal layout
        relaid, layout = g._batched().layout != layout, g._batched().layout
        first, steps = len(calls), len(factored)
        if event == "no change":
            batch = g._batch
            system = batch._latest
            state = tuple(a.copy() for a in batch.state())
            lin = (batch.poses["lin"].copy(), batch.landmarks["lin"].copy())
            g.optimize(lm_config)
            made, started_from = factored[steps]
            assert made == first and started_from is system
            err, full = system.error, False
        else:
            g.optimize(lm_config)
            state, full, err, system, lin = calls[first]
        runs.append((step, event, relaid, full))
        want_err, want_info, want_grad = lagged_oracle(g, state, lin)
        assert err == pytest.approx(want_err, rel=1e-12)
        assert rel_err(dense_system(system), want_info) < 1e-12
        assert rel_err(system.grad, want_grad) < 1e-12

    for step, event in scripted_run(g):
        if event == "landmark":  # a landmark with no factor yet leaves a gauge freedom
            continue
        optimize_and_check(step, event)
        if event == "observations" and step == 5:
            optimize_and_check(step, "no change")

    full = [(step, event) for step, event, _, full in runs if full]
    relaid = [(step, event) for step, event, relaid, _ in runs if relaid]
    assert full == [(-1, "prior")]
    # the first between widens the band to 12 rows and the loop closure to 48;
    # landmarks 1, 2, 3 and 5 double the landmark capacity
    assert relaid == [(-1, "prior"), (0, "pose"), (0, "observations"), (2, "observations"),
                      (4, "observations"), (6, "loop closure"), (8, "observations")]
    assert len(runs) == 30  # the other 22 appended


def test_closing_linearization_keeps_the_latest_hessian():
    # A linearization that gives no row a new Jacobian, at an estimate moved
    # within RELINEARIZE_THRESHOLD, shares the flat buffer of the latest
    # system, A, B and C, and bins only the gradient: bit-equal to a binning
    # from scratch. The append that follows copies that buffer and starts
    # from that gradient. The linearization right after the append keeps
    # the appended system's A, B and C in turn: their sums ran in another
    # order, so they match a binning from scratch to rounding, while the
    # gradient, binned from every row, is bit-equal.
    rng = np.random.default_rng(21)
    poses = chain_poses(rng, 6)
    g = build_chain_graph(poses, perturb=0.05, rng=rng)
    points = {j: rng.normal(size=3) for j in (1, 2)}
    for j, point in points.items():
        g.add_landmark(j, point + rng.normal(scale=0.05, size=3))
        for k, pose in enumerate(poses):
            z = inverse(pose).apply(point) + rng.normal(scale=0.01, size=3)
            g.add_factor(fx.ObservationFactor(k, j, z, np.eye(3) * 1e-2) if k % 2 else
                         fx.WeightedObservationFactor(k, j, z, np.eye(3) * 1e-2, 0.8))
    g.optimize()
    batch = g._batch
    latest = batch._latest
    batch.store(batch.retract(batch.state(), rng.normal(scale=1e-6, size=6 * 6 + 3 * 2)))
    kept = batch.linearize(batch.state())
    assert kept.relinearized == 0 and kept.flat is latest.flat
    batch._latest = None  # bin from scratch
    scratch = batch.linearize(batch.state())
    assert scratch.flat is not latest.flat and kept.error == scratch.error
    assert not np.array_equal(kept.grad, latest.grad)
    for name in ("band", "border", "landmark", "grad"):
        assert np.array_equal(getattr(kept, name), getattr(scratch, name)), name

    batch._latest = kept
    g.add_pose(6, retract(poses[5], rng.normal(scale=0.05, size=6)))
    g.add_factor(fx.BetweenFactor(5, 6, Pose3.identity(), np.eye(6) * 1e-2))
    g.add_factor(fx.ObservationFactor(6, 1, rng.normal(size=3), np.eye(3) * 1e-2))
    appended = g._current_system()
    assert appended.flat is not kept.flat and appended.relinearized == 2
    closing = batch.linearize(batch.state())
    assert closing.relinearized == 0 and closing.flat is appended.flat
    batch._latest = None
    scratch = batch.linearize(batch.state())
    assert scratch.flat is not appended.flat and closing.error == scratch.error
    for system in (appended, closing):
        assert rel_err(dense_system(system), dense_system(scratch)) < 1e-12
    assert rel_err(appended.grad, scratch.grad) < 1e-12
    assert np.array_equal(closing.grad, scratch.grad)


def check_against_oracle(g, state, lin, err, system, from_scratch):
    """One system against the lagged oracle; from scratch as well when asked.
    The gradient of a nearly converged solve is far smaller than its terms, so
    its error is measured against the norm of |J|^T |r|."""
    batch = g._batch
    _, grad_scale = dense_normal_equations(g, batch, values_at(batch, *state),
                                           values_at(batch, *lin), absolute=True)
    want_err, want_info, want_grad = lagged_oracle(g, state, lin)
    assert err == pytest.approx(want_err, rel=1e-12)
    assert rel_err(dense_system(system), want_info) < 1e-12
    assert np.linalg.norm(system.grad - want_grad) < 1e-12 * np.linalg.norm(grad_scale)
    if from_scratch:  # every row linearized at the estimate the system is for
        _, scratch_info, scratch_grad = lagged_oracle(g, state, state)
        assert system.fresh
        assert rel_err(dense_system(system), scratch_info) < 1e-12
        assert np.linalg.norm(system.grad - scratch_grad) < 1e-12 * np.linalg.norm(grad_scale)


@pytest.mark.parametrize("threshold", [None, 0.0])
def test_fluid_relinearization_matches_lagged_oracle(monkeypatch, threshold):
    # A 2-iteration optimize after every change of the scripted run, then a
    # solve to convergence. Each optimize's
    # first and final system equal the scalar oracle with every row's Jacobian
    # at its variables' linearization points and every residual at the
    # estimate; a converged one, and with a zero threshold every one, equals
    # a from-scratch linearization at its estimate.
    if threshold is not None:
        monkeypatch.setattr(gr, "RELINEARIZE_THRESHOLD", threshold)
    calls = count_linearize(monkeypatch)
    g = gr.FactorGraph()
    stale, converged = 0, 0

    def optimize_and_check(config):
        nonlocal stale, converged
        first = len(calls)
        report = g.optimize(config)
        state, _, err, system, lin = calls[first]
        check_against_oracle(g, state, lin, err, system, threshold == 0.0)
        system = g._batch._latest
        state = g._batch.state()
        lin = (g._batch.poses["lin"], g._batch.landmarks["lin"])
        check_against_oracle(g, state, lin, report.final_error, system,
                             threshold == 0.0 or report.converged)
        assert report.gradient_norm == float(np.linalg.norm(system.grad))
        stale += not all(c[3].fresh for c in calls[first:])
        converged += report.converged

    for _, event in scripted_run(g):
        if event != "landmark":  # a landmark with no factor yet leaves a gauge freedom
            optimize_and_check(gr.LMConfig(max_iterations=2))
    optimize_and_check(gr.LMConfig())
    assert converged >= 2
    if threshold is None:  # the threshold leaves stale rows in most solves
        assert stale > 20


def test_kept_factor_matches_a_full_factorization(monkeypatch):
    # A 2-iteration optimize after every change of the scripted run, then a
    # between from a later pose that widens the band again; after each, the
    # joint covariance of the last pose and every landmark. Every undamped
    # factor that optimize or the marginal keeps, refactored only from the
    # first pose column that changed since the factor before it, solves
    # fixed random right-hand sides and gives the trailing covariance of a
    # from-scratch factorization of the same system. A marginal after which
    # no row changed makes no factorization: it reads optimize's kept
    # factor, bit for bit, and that factor is checked against its system.
    factorize = gr.FactorGraph._factorize
    made = []

    def recording(system, lam=0.0, kept=None, first=0):
        factor = factorize(system, lam, kept, first)
        made.append((system, lam, kept, first, factor))
        return factor

    monkeypatch.setattr(gr.FactorGraph, "_factorize", staticmethod(recording))
    rng = np.random.default_rng(23)
    g = gr.FactorGraph()
    prefixes, marginal_prefixes = [], []
    reused = 0  # marginals that read optimize's kept factor

    def check(factorizations):
        """The kept prefix of each undamped factorization, after checking it."""
        out = []
        for system, lam, kept, first, factor in factorizations:
            if lam:
                continue
            if kept is not None and len(kept.band) == len(system.band):
                out.append(min(first, kept.band.shape[1] // 6))
            full = factorize(system)
            rhs = rng.normal(size=len(system.grad))
            assert rel_err(factor.solve(rhs), full.solve(rhs)) < 1e-9
            assert rel_err(factor.trailing_covariance(), full.trailing_covariance()) < 1e-9
        return out

    def optimize_and_check():
        nonlocal reused
        before = len(made)
        g.optimize(gr.LMConfig(max_iterations=2))
        prefixes.extend(check(made[before:]))
        before, kept = len(made), g._factor
        cov = g.joint_covariance(list(g.poses)[-1], list(g.landmarks))
        if len(made) == before:
            reused += 1
            assert g._factor is kept
            assert np.array_equal(cov, kept.trailing_covariance())
            check([(g._batch._latest, 0.0, None, 0, kept)])
        else:
            assert len(made) == before + 1
            marginal_prefixes.extend(check(made[before:]))

    for _, event in scripted_run(g):
        if event != "landmark":  # a landmark with no factor yet leaves a gauge freedom
            optimize_and_check()
    band_rows = g._batch.band_rows
    g.add_factor(fx.BetweenFactor(4, 30, compose(inverse(g.poses[4]), g.poses[30]),
                                  np.eye(6) * 1e-4))
    optimize_and_check()
    assert g._batch.band_rows > band_rows
    assert sum(p > 0 for p in prefixes) >= 15  # factors that kept a prefix
    assert sum(p > 0 for p in marginal_prefixes) >= 10  # marginal factors that kept one
    assert reused >= 3  # 4 of the 30 marginals


def test_mixture_switch_relinearizes_the_switched_rows():
    # After a converged solve, a linearization at a copy of the state with
    # landmark 0 shifted makes the mixture's other candidate, landmark 1, the
    # cheaper one. The plain rows of landmark 0 get new Jacobians because it
    # moved, and both mixture rows because a
    # mixture of two is linearized at the estimate: the switched-off row with
    # scale 0, the switched-on one with scale 1. A one-component mixture of
    # unmoved variables keeps its Jacobian. The system equals the oracle and
    # the error the sum of the scalar errors, which holds the -log w of the
    # active components.
    rng = np.random.default_rng(18)
    poses = chain_poses(rng, 4)
    g = build_chain_graph(poses, perturb=0.02, rng=rng)
    gamma = np.eye(3) * 1e-2
    points = [rng.normal(size=3)]
    points.append(points[0] + np.array([0.3, 0.0, 0.0]))
    for j, point in enumerate(points):
        g.add_landmark(j, point + rng.normal(scale=0.05, size=3))
        for k, pose in enumerate(poses):
            z = inverse(pose).apply(point) + rng.normal(scale=0.05, size=3)
            g.add_factor(fx.ObservationFactor(k, j, z, gamma))
    z = inverse(poses[3]).apply(points[0])
    g.add_factor(fx.MixtureObservationFactor(3, [0, 1], z, gamma, [0.7, 0.3]))
    z = inverse(poses[2]).apply(points[1])
    g.add_factor(fx.MixtureObservationFactor(2, [1], z, gamma, [1.0]))
    assert g.optimize().converged
    batch = g._batched()
    rows = batch.components["row"]
    assert np.array_equal(batch.observation["jac_s"][rows], [1.0, 0.0, 1.0])

    batch = g._batched()
    state = tuple(a.copy() for a in batch.state())
    state[1][batch.lm_slot[0], 0] += 1.0
    system = batch.linearize(state)
    assert np.array_equal(batch.observation["jac_s"][rows], [0.0, 1.0, 1.0])
    assert not batch.observation["jac"][rows[0]].any()
    assert batch.observation["jac"][rows[1]].any()
    assert system.relinearized == len(poses) + 2  # landmark 0's plain rows, the mixture of two
    lin = (batch.poses["lin"], batch.landmarks["lin"])
    check_against_oracle(g, state, lin, system.error, system, from_scratch=False)
    want = sum(factor_error(f, values_at(batch, *state)) for f in g.factors)
    assert system.error == pytest.approx(want, rel=1e-12)

    report = g.optimize()
    system = batch._latest
    state = batch.state()
    check_against_oracle(g, state, lin, report.final_error, system, report.converged)


@pytest.mark.parametrize("away", ["raised", "probe"])
def test_optimize_starts_from_the_stored_estimate(monkeypatch, away):
    # The latest linearization is at an estimate that is never stored:
    # "raised" makes the second undamped factorization raise, after one
    # accepted step, so it is at that step's estimate; "probe" linearizes at
    # a copy of the stored estimate with landmark 3 moved. The next optimize
    # starts from a system at the stored estimate, not from that one.
    g = structured_graph(np.random.default_rng(12))
    batch = g._batch
    if away == "raised":
        keep_factor = gr.FactorGraph._keep_factor
        calls = []

        def failing(self, system):
            calls.append(system)
            if len(calls) == 2:
                raise NumericalError("injected")
            return keep_factor(self, system)

        monkeypatch.setattr(gr.FactorGraph, "_keep_factor", failing)
        with pytest.raises(NumericalError, match="injected"):
            g.optimize()
        assert len(calls) == 2
        monkeypatch.setattr(gr.FactorGraph, "_keep_factor", keep_factor)
    else:
        g.optimize()
        probe = tuple(a.copy() for a in batch.state())
        probe[1][batch.lm_slot[3], 0] += 1.0
        assert batch.linearize(probe) is batch._latest
    report = g.optimize(gr.LMConfig(max_iterations=0))
    assert report.initial_error == batch.error_only(batch.state()).error


def test_nan_trial_step_on_a_mixture_graph_is_rejected(monkeypatch):
    # The first trial step puts a mixture's candidate landmark at NaN. Its
    # error is NaN, so LM rejects the step, raises lambda and goes on.
    g = structured_graph(np.random.default_rng(20))
    batch = g._batched()
    slot = batch.lm_slot[10]
    original = gr._BatchedFactors.retract
    trials = []

    def retract(self, state, delta):
        x, lms = original(self, state, delta)
        if not trials:
            lms[slot] = np.nan
        trials.append(self.error_only((x, lms)).error)
        return x, lms

    monkeypatch.setattr(gr._BatchedFactors, "retract", retract)
    report = g.optimize()
    assert np.isnan(trials[0]) and len(trials) > 1
    assert report.converged and np.isfinite(report.final_error)
    assert np.isfinite(g.landmarks[10]).all()


@pytest.mark.parametrize("with_landmarks", [True, False])
def test_solve_and_marginals_match_dense_oracle(with_landmarks):
    g = structured_graph(np.random.default_rng(10), with_landmarks)
    batch = g._batched()
    system = batch.linearize(batch.state())
    info, grad = dense_normal_equations(g, batch)

    lam = 1e-3
    damped = info + lam * np.diag(np.maximum(np.diag(info), 1e-12))
    step = gr.FactorGraph._factorize(system, lam).solve(-grad)
    assert rel_err(step, np.linalg.solve(damped, -grad)) < 1e-9

    cov = np.linalg.inv(info)
    last = columns(batch, "x", 11)  # pose 11 holds the last slot
    assert rel_err(g.joint_covariance(11, []), cov[np.ix_(last, last)]) < 1e-9
    lm_keys = sorted(g.landmarks)
    blocks = g.joint_marginals(11, lm_keys)
    assert blocks.keys() == set(lm_keys)
    for key, block in blocks.items():
        cols = np.concatenate([last, columns(batch, "l", key)])
        assert rel_err(block, cov[np.ix_(cols, cols)]) < 1e-9
    with pytest.raises(ValueError):
        g.joint_covariance(7, lm_keys)


@pytest.mark.parametrize("with_landmarks", [True, False])
def test_fill_counter_matches_block_assembly(with_landmarks):
    # L once came from sp.bmat over the blocks; the direct build keeps its nnz
    g = structured_graph(np.random.default_rng(10), with_landmarks)
    batch = g._batched()
    factor = gr.FactorGraph._factorize(batch.linearize(batch.state()))
    n_pose, width = factor.band.shape[1], len(factor.band)
    l_pose = sp.dia_matrix((factor.band, -np.arange(width)), shape=(n_pose, n_pose))
    want = l_pose if not with_landmarks else sp.bmat(
        [[l_pose, None], [sp.csr_matrix(factor.border.T), sp.csr_matrix(factor.schur)]])
    assert (factor.L.nnz, factor.U.nnz) == (want.nnz, want.T.nnz)
    assert np.array_equal(factor.L.toarray(), want.toarray())


def random_graph(seed, n_poses, n_landmarks):
    """A perturbed pose chain with a prior, maybe a loop closure, and plain,
    weighted and mixture observations of a few landmarks."""
    rng = np.random.default_rng(seed)
    poses = chain_poses(rng, n_poses)
    g = build_chain_graph(poses, perturb=rng.uniform(0.0, 0.3), rng=rng)
    if n_poses > 2 and rng.random() < 0.5:
        rel = compose(inverse(poses[0]), poses[-1])
        g.add_factor(fx.BetweenFactor(0, n_poses - 1, retract(rel, rng.normal(scale=0.05, size=6)),
                                      np.eye(6) * 1e-3))
    points = rng.normal(size=(n_landmarks, 3))
    for j, p in enumerate(points):
        g.add_landmark(j, p + rng.normal(scale=0.1, size=3))
        for k in rng.choice(n_poses, size=2, replace=False):
            z = inverse(poses[k]).apply(p) + rng.normal(scale=0.05, size=3)
            g.add_factor(fx.ObservationFactor(int(k), j, z, np.eye(3) * 1e-2))
    if n_landmarks >= 2:
        k = int(rng.integers(n_poses))
        z = inverse(poses[k]).apply(points[0])
        g.add_factor(fx.WeightedObservationFactor(k, 0, z, np.eye(3) * 1e-2, 0.6, group_id=0))
        g.add_factor(fx.WeightedObservationFactor(k, 1, z, np.eye(3) * 1e-2, 0.4, group_id=0))
        g.add_factor(fx.MixtureObservationFactor(k, [0, 1], z, np.eye(3) * 1e-2, [0.5, 0.5]))
    return g


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_poses=st.integers(2, 7),
       n_landmarks=st.integers(0, 3), max_iterations=st.sampled_from([2, 100]))
def test_accepted_steps_never_raise_the_error_and_convergence_is_exact(
        seed, n_poses, n_landmarks, max_iterations):
    g = random_graph(seed, n_poses, n_landmarks)
    accepted = []  # the true error at each linearization an accepted step makes
    original = gr._BatchedFactors.linearize

    def recording(self, state, residuals=None, fresh=False, append=False):
        if residuals is not None and not fresh:
            accepted.append(sum(factor_error(f, values_at(self, *state)) for f in g.factors))
        return original(self, state, residuals, fresh, append)

    gr._BatchedFactors.linearize = recording
    try:
        before = graph_error(g)
        report = g.optimize(gr.LMConfig(max_iterations=max_iterations))
    finally:
        gr._BatchedFactors.linearize = original
    errors = [before] + accepted
    assert len(accepted) == report.iterations
    for a, b in zip(errors, errors[1:]):
        assert b <= a * (1 + 1e-12)
    if report.converged:
        batch = g._batched()
        _, grad = dense_normal_equations(g, batch)
        _, scale = dense_normal_equations(g, batch, absolute=True)
        assert abs(report.gradient_norm - np.linalg.norm(grad)) <= 1e-12 * np.linalg.norm(scale)


def test_landmark_without_information_raises_numerical_error():
    # The marginal reads the kept factor only while the graph has the same
    # landmarks: one added since, with no factor yet, leaves C singular
    g = structured_graph(np.random.default_rng(15))
    g.optimize()
    g.joint_covariance(11, sorted(g.landmarks))
    g.add_landmark(20, np.zeros(3))
    with pytest.raises(NumericalError):
        g.joint_covariance(11, [3])


def test_last_pose_without_information_raises_numerical_error():
    g = structured_graph(np.random.default_rng(15))
    g.optimize()
    g.add_pose(12, Pose3.identity())  # the last slot, with no factor
    with pytest.raises(NumericalError):
        g.joint_covariance(12, [])
    with pytest.raises(NumericalError):
        g.joint_marginals(12, sorted(g.landmarks))


# -- marginals reuse the system optimize built -------------------------------

def fresh_marginals(g, pose_key, landmark_keys):
    """(joint, pose) marginals of the pose in the last slot, from the trailing
    block of the factor of a new linearization at the current estimate."""
    batch = g._batched()
    assert batch.pose_slot[pose_key] == batch.num_poses - 1
    system = batch.linearize(batch.state(), fresh=True)
    trailing = gr.FactorGraph._factorize(system).trailing_covariance()
    first = 6 * (batch.num_poses - 1)  # the trailing block starts at this system column

    def covariance(cols):
        return trailing[np.ix_(cols - first, cols - first)]

    pose_cols = columns(batch, "x", pose_key)
    cov = covariance(np.concatenate(
        [pose_cols] + [columns(batch, "l", k) for k in landmark_keys]))
    joints = {}
    for i, key in enumerate(landmark_keys):
        sel = np.concatenate([np.arange(6), 6 + 3 * i + np.arange(3)])
        joints[key] = cov[np.ix_(sel, sel)]
    return joints, covariance(pose_cols)


def checked_marginals(g, pose_key, calls):
    """Check both marginals against fresh_marginals; return how many linearize
    calls each made, the joint one first."""
    lm_keys = sorted(g.landmarks)
    before = len(calls)
    joints = g.joint_marginals(pose_key, lm_keys)
    between = len(calls)
    pose = g.joint_covariance(pose_key, [])
    made = between - before, len(calls) - between
    want_joints, want_pose = fresh_marginals(g, pose_key, lm_keys)
    assert np.array_equal(pose, want_pose)
    assert joints.keys() == want_joints.keys()
    for key, block in joints.items():
        assert np.array_equal(block, want_joints[key]), key
    return made


@pytest.mark.parametrize("max_iterations", [100, 0])
def test_marginals_after_optimize_reuse_its_system(monkeypatch, max_iterations):
    # max_iterations=0 returns without a step: the system is the initial one
    g = structured_graph(np.random.default_rng(12))
    g.optimize(gr.LMConfig(max_iterations=max_iterations))
    calls = count_linearize(monkeypatch)
    assert checked_marginals(g, 11, calls) == (0, 0)  # the last pose: the trailing block
    with pytest.raises(ValueError):  # any other pose has no marginal path
        g.joint_marginals(7, sorted(g.landmarks))


def test_marginals_never_served_from_a_stale_system(monkeypatch):
    g = structured_graph(np.random.default_rng(13))
    calls = count_linearize(monkeypatch)

    g.optimize()
    z = inverse(g.poses[8]).apply(g.landmarks[4])
    # the first marginal appends the new row to the kept system and keeps the
    # result, which the second reuses
    g.add_factor(fx.ObservationFactor(8, 4, z + 0.01, np.eye(3) * 1e-2))
    assert checked_marginals(g, 11, calls) == (1, 0)  # the last pose: the trailing block

    g.optimize()
    flip_weights(g)  # the kept system has the old weights: linearized once anew
    assert checked_marginals(g, 11, calls) == (1, 0)

    gr.em_reweight(g)  # ends in optimize: its system is current
    assert checked_marginals(g, 11, calls) == (0, 0)


def test_pose_written_in_place_is_rejected_after_optimize():
    # only optimize moves the estimates: they are read as read-only copies
    g = structured_graph(np.random.default_rng(14))
    g.optimize()
    with pytest.raises(ValueError):
        g.poses[5].translation[0] += 1.0
    with pytest.raises(ValueError):
        g.landmarks[3][0] += 1.0
    with pytest.raises(TypeError):
        g.poses[5] = Pose3.identity()


def test_variable_added_after_optimize_joins_the_batch():
    g = gr.FactorGraph()
    g.add_pose(0, Pose3.identity())
    g.add_factor(fx.PriorFactor(0, Pose3.identity(), np.eye(6) * 0.01))
    g.optimize()
    g.add_pose(1, Pose3.identity())  # no factor yet: zero information
    with pytest.raises(NumericalError):
        g.joint_covariance(1, [])
    g.add_factor(fx.BetweenFactor(0, 1, Pose3.identity(), np.eye(6) * 0.01))
    g.add_landmark(0, np.ones(3))  # no factor: zero information
    with pytest.raises(NumericalError):
        g.joint_marginals(1, [0])


# -- numerical breakdown -----------------------------------------------------

def test_singular_pose_block_raises_numerical_error():
    g = gr.FactorGraph()
    g.add_pose(0, Pose3.identity())
    g.add_pose(1, Pose3.identity())  # no factor: zero information
    g.add_factor(fx.PriorFactor(0, Pose3.identity(), np.eye(6) * 0.01))
    with pytest.raises(NumericalError):
        g.joint_covariance(1, [])


def test_singular_schur_complement_raises_numerical_error():
    g = gr.FactorGraph()
    g.add_pose(0, Pose3.identity())
    g.add_factor(fx.PriorFactor(0, Pose3.identity(), np.eye(6) * 0.01))
    g.add_landmark(0, np.ones(3))  # never observed: zero information
    with pytest.raises(NumericalError):
        g.joint_marginals(0, [0])


def test_add_landmark_rejects_non_finite_point_without_mutation(monkeypatch):
    g = structured_graph(np.random.default_rng(21))
    g.optimize()
    latest, stored = g._batch._latest, len(g._batch.landmarks)
    for bad in ([np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]):
        with pytest.raises(DataFormatError):
            g.add_landmark(99, np.array(bad))
    assert 99 not in g.landmarks
    assert g._batch._latest is latest and len(g._batch.landmarks) == stored
    calls = count_linearize(monkeypatch)
    assert checked_marginals(g, 11, calls) == (0, 0)  # optimize's system is still current
    g.add_landmark(99, np.zeros(3))


def observed_graph(rng, weights, innovation_covs=None):
    """One pose, two candidate landmarks, one EM group observing landmark set."""
    g = gr.FactorGraph()
    g.add_pose(0, Pose3.identity())
    g.add_factor(fx.PriorFactor(0, Pose3.identity(), PRIOR_SIGMA))
    g.add_landmark(0, np.array([1.0, 0.0, 0.0]))
    g.add_landmark(1, np.array([1.0, 0.5, 0.0]))
    z = np.array([1.0, 0.0, 0.0])
    gamma = np.eye(3) * 0.0025  # sigma = 0.05
    for j, w in enumerate(weights):
        cov = None if innovation_covs is None else innovation_covs[j]
        g.add_factor(fx.WeightedObservationFactor(0, j, z, gamma, w, group_id=7,
                                                  innovation_cov=cov))
    return g


def test_em_reweight_ambiguity_resolves():
    rng = np.random.default_rng(6)
    g = observed_graph(rng, [0.5, 0.5])
    gr.em_reweight(g)
    weighted = [f for f in g.factors if isinstance(f, fx.WeightedObservationFactor)]
    by_lm = {f.landmark_key: f.weight for f in weighted}
    # landmark 0 matches the measurement exactly; landmark 1 sits 10 sigma away
    assert by_lm[0] > 0.99
    assert by_lm[0] + by_lm[1] == pytest.approx(1.0, abs=1e-9)


def test_weight_is_read_only_and_em_reweight_sets_it():
    g = observed_graph(np.random.default_rng(6), [0.5, 0.5])
    f = next(f for f in g.factors if isinstance(f, fx.WeightedObservationFactor))
    with pytest.raises(AttributeError):
        f.weight = 0.1
    assert f.weight == 0.5
    gr.em_reweight(g)
    assert f.weight > 0.99
    batch = g._batched()
    assert np.array_equal(batch.observation["s"][batch.weighted["row"]],
                          np.sqrt([factor.weight for factor in batch._weighted]))


def test_em_reweight_fixed_point():
    rng = np.random.default_rng(7)
    g = observed_graph(rng, [0.5, 0.5])
    gr.em_reweight(g)
    pose_before = g.poses[0]
    lm_before = {k: v.copy() for k, v in g.landmarks.items()}
    report = gr.em_reweight(g)
    assert np.linalg.norm(local(pose_before, g.poses[0])) < 1e-9
    for k, v in lm_before.items():
        assert np.linalg.norm(g.landmarks[k] - v) < 1e-9
    assert report.final_error <= report.initial_error + 1e-12


def test_em_reweight_error_non_increasing_convex_case():
    g = gr.FactorGraph()
    g.add_pose(0, Pose3.identity())
    g.add_factor(fx.PriorFactor(0, Pose3.identity(), PRIOR_SIGMA))
    g.add_landmark(0, np.array([2.0, 0.3, -0.1]))
    g.add_factor(fx.WeightedObservationFactor(0, 0, np.array([2.0, 0.0, 0.0]),
                                              np.eye(3) * 0.01, 1.0, group_id=1))
    before = graph_error(g)
    report = gr.em_reweight(g)
    assert report.final_error <= before + 1e-12


def test_em_reweight_normalizes_each_group_wherever_its_members_sit():
    # Group 7 gets members in two syncs, around group 3's and two ungrouped
    # factors. Each group is normalized on its own, and an ungrouped factor
    # is a group of one.
    g = gr.FactorGraph()
    g.add_pose(0, Pose3.identity())
    g.add_factor(fx.PriorFactor(0, Pose3.identity(), PRIOR_SIGMA))
    z = np.array([1.0, 0.0, 0.0])
    for j in range(4):
        g.add_landmark(j, z + np.array([0.0, 0.03 * j, 0.0]))
    gamma = np.eye(3) * 0.0025
    for members in ([(0, 7), (1, 3), (2, None), (2, 3)], [(3, 7), (1, None), (0, 3)]):
        for j, group in members:
            g.add_factor(fx.WeightedObservationFactor(0, j, z, gamma, 0.5, group_id=group))
        graph_error(g)  # appends these members
    weighted = [f for f in g.factors if isinstance(f, fx.WeightedObservationFactor)]
    likelihood = []
    for f in weighted:
        r = inverse(g.poses[0]).apply(g.landmarks[f.landmark_key]) - f.point
        likelihood.append(np.exp(-0.5 * r @ np.linalg.solve(f.gamma, r)))
    keys = [f.group_id if f.group_id is not None else ("alone", i)
            for i, f in enumerate(weighted)]
    total = {}
    for key, lik in zip(keys, likelihood):
        total[key] = total.get(key, 0.0) + lik
    want = [lik / total[key] for key, lik in zip(keys, likelihood)]
    gr.em_reweight(g)
    assert [f.weight for f in weighted] == pytest.approx(want, rel=1e-12)
    assert [f.weight for f in weighted if f.group_id is None] == [1.0, 1.0]


def test_group_weights_match_per_group_loop():
    # ndarray.sum and np.add.reduceat add a group's terms in different orders,
    # so the weights may differ from the loop's in the last few bits
    rng = np.random.default_rng(19)
    sizes = rng.integers(1, 9, size=200)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    logs = rng.normal(scale=30.0, size=sizes.sum())
    want = np.empty_like(logs)
    for a, b in zip(starts, starts + sizes):
        w = np.exp(logs[a:b] - logs[a:b].max())
        w = np.maximum(w / w.sum(), 1e-12)
        want[a:b] = w / w.sum()
    got = gr._group_weights(logs, starts)
    assert np.all(np.abs(got - want) <= 1e-15 * want)
    assert (want < 1e-11).any()  # the floor is reached


def test_em_reweight_non_spd_innovation_raises_numerical_error():
    g = observed_graph(np.random.default_rng(11), [0.5, 0.5],
                       innovation_covs=[np.eye(3) * 0.01, -np.eye(3) * 0.01])
    with pytest.raises(NumericalError):
        gr.em_reweight(g)


def test_summary_counts():
    rng = np.random.default_rng(8)
    poses = chain_poses(rng, 3)
    g = build_chain_graph(poses)
    s = graph_summary(g)
    assert s["num_poses"] == 3
    assert s["factor_counts"]["PriorFactor"] == 1
    assert s["factor_counts"]["BetweenFactor"] == 2
