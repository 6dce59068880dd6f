import numpy as np
import pytest

from objectslam import factors as fx
from objectslam import graph as gr
from objectslam.errors import NumericalError
from objectslam.geometry import Pose3, compose, inverse, local, retract

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
    assert np.allclose(g.pose_marginal(0), sigma0, atol=1e-9)


def test_marginal_two_priors_information_additivity():
    sigma0 = np.diag([0.01, 0.02, 0.03, 0.04, 0.05, 0.06])
    g = gr.FactorGraph()
    g.add_pose(0, Pose3.identity())
    g.add_factor(fx.PriorFactor(0, Pose3.identity(), sigma0))
    g.add_factor(fx.PriorFactor(0, Pose3.identity(), sigma0))
    assert np.allclose(g.pose_marginal(0), sigma0 / 2, atol=1e-9)


def test_joint_marginal_spd_and_symmetric():
    rng = np.random.default_rng(4)
    poses = chain_poses(rng, 5)
    g = build_chain_graph(poses)
    g.add_landmark(0, np.array([0.5, 0.5, 0.0]))
    for k in range(5):
        z = inverse(poses[k]).apply(np.array([0.5, 0.5, 0.0]))
        g.add_factor(fx.ObservationFactor(k, 0, z, np.eye(3) * 0.01))
    g.optimize()
    block = g.joint_marginal(4, 0)
    assert block.shape == (9, 9)
    assert np.allclose(block, block.T, atol=1e-9)
    np.linalg.cholesky(block)  # SPD check

    with pytest.raises(ValueError):
        g.joint_marginal(99, 0)


def test_gauge_full_rank_with_single_prior():
    rng = np.random.default_rng(5)
    poses = chain_poses(rng, 6)
    g = build_chain_graph(poses, perturb=0.02, rng=rng)
    g.optimize()
    _, batch = g._information_factorization()
    # Cholesky of the dense information succeeds -> full rank at convergence
    info, _ = dense_normal_equations(g, batch)
    np.linalg.cholesky(info)


# -- assembly and solver oracles ---------------------------------------------

def dense_normal_equations(g, batch):
    """Dense J^T J and J^T r stacked from each factor's scalar linearize()."""
    info = np.zeros((batch.num_cols, batch.num_cols))
    grad = np.zeros(batch.num_cols)
    values = g.values()
    for f in g.factors:
        r, jacobians = f.linearize(values)
        jac = np.zeros((len(r), batch.num_cols))
        for (kind, key), block in jacobians.items():
            cols = batch.pose_columns(key) if kind == "x" else batch.landmark_columns(key)
            jac[:, cols] += block
        info += jac.T @ jac
        grad += jac.T @ r
    return info, grad


def band_to_dense(band):
    """Symmetric matrix from its lower band, band[r - c, c] = A[r, c]."""
    n = band.shape[1]
    out = np.zeros((n, n))
    for k, diagonal in enumerate(band):
        idx = np.arange(n - k)
        out[idx + k, idx] = diagonal[:n - k]
        out[idx, idx + k] = diagonal[:n - k]
    return out


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
    err, system = batch.linearize(batch.gather(g))
    info, grad = dense_normal_equations(g, batch)
    n_pose = 6 * len(g.poses)
    assert err == pytest.approx(g.error(), rel=1e-12)
    assert rel_err(band_to_dense(system.band), info[:n_pose, :n_pose]) < 1e-12
    assert rel_err(system.border, info[:n_pose, n_pose:]) < 1e-12
    assert rel_err(system.landmark, info[n_pose:, n_pose:]) < 1e-12
    assert rel_err(system.grad, grad) < 1e-12


@pytest.mark.parametrize("with_landmarks", [True, False])
def test_solve_and_marginals_match_dense_oracle(with_landmarks):
    g = structured_graph(np.random.default_rng(10), with_landmarks)
    batch = g._batched()
    _, system = batch.linearize(batch.gather(g))
    info, grad = dense_normal_equations(g, batch)

    lam = 1e-3
    damped = info + lam * np.diag(np.maximum(np.diag(info), 1e-12))
    step = gr.FactorGraph._factorize(system, lam).solve(-grad)
    assert rel_err(step, np.linalg.solve(damped, -grad)) < 1e-9

    cov = np.linalg.inv(info)
    for key in g.poses:
        cols = batch.pose_columns(key)
        assert rel_err(g.pose_marginal(key), cov[np.ix_(cols, cols)]) < 1e-9
    lm_keys = sorted(g.landmarks)
    for key, block in g.joint_marginals(7, lm_keys).items():
        cols = np.concatenate([batch.pose_columns(7), batch.landmark_columns(key)])
        assert rel_err(block, cov[np.ix_(cols, cols)]) < 1e-9


# -- marginals reuse the system optimize built -------------------------------

def count_linearize(monkeypatch):
    calls = []
    original = gr._BatchedFactors.linearize

    def counting(self, state):
        calls.append(state)
        return original(self, state)

    monkeypatch.setattr(gr._BatchedFactors, "linearize", counting)
    return calls


def fresh_marginals(g, pose_key, landmark_keys):
    """(joint, pose) marginals from a new linearization at the current estimate."""
    batch = g._batched()
    _, system = batch.linearize(batch.gather(g))
    factor = gr.FactorGraph._factorize(system)

    def covariance(cols):
        block = factor.solve(np.eye(batch.num_cols)[:, cols])[cols]
        return 0.5 * (block + block.T)

    pose_cols = batch.pose_columns(pose_key)
    cov = covariance(np.concatenate(
        [pose_cols] + [batch.landmark_columns(k) for k in landmark_keys]))
    joints = {}
    for i, key in enumerate(landmark_keys):
        sel = np.concatenate([np.arange(6), 6 + 3 * i + np.arange(3)])
        joints[key] = cov[np.ix_(sel, sel)]
    return joints, covariance(pose_cols)


def checked_marginals(g, pose_key, calls):
    """Check both marginals against fresh_marginals; return how many linearize
    calls they made."""
    lm_keys = sorted(g.landmarks)
    before = len(calls)
    joints, pose = g.joint_marginals(pose_key, lm_keys), g.pose_marginal(pose_key)
    made = len(calls) - before
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
    assert checked_marginals(g, 7, calls) == 0


def test_marginals_never_served_from_a_stale_system(monkeypatch):
    g = structured_graph(np.random.default_rng(13))
    calls = count_linearize(monkeypatch)

    g.optimize()
    g.poses[5] = retract(g.poses[5], np.full(6, 1e-3))  # direct write to an estimate
    assert checked_marginals(g, 7, calls) == 2

    g.optimize()
    g.landmarks[3][0] += 1e-3  # in-place write to a landmark estimate
    assert checked_marginals(g, 7, calls) == 2

    g.optimize()
    z = inverse(g.poses[8]).apply(g.landmarks[4])
    g.add_factor(fx.ObservationFactor(8, 4, z + 0.01, np.eye(3) * 1e-2))
    assert checked_marginals(g, 7, calls) == 2

    g.optimize()
    for f in g.factors:
        if isinstance(f, fx.WeightedObservationFactor):
            f.weight = 1.0 - f.weight
    g.bump_weights_version()
    assert checked_marginals(g, 7, calls) == 2

    gr.em_reweight(g, iterations=1)  # ends in optimize: its system is current
    assert checked_marginals(g, 7, calls) == 0


def test_pose_written_in_place_is_rejected_after_optimize():
    # the optimized poses share storage with the kept state, so they stay read-only
    g = structured_graph(np.random.default_rng(14))
    g.optimize()
    with pytest.raises(ValueError):
        g.poses[5].translation[0] += 1.0


def test_variable_added_after_optimize_joins_the_batch():
    g = gr.FactorGraph()
    g.add_pose(0, Pose3.identity())
    g.add_factor(fx.PriorFactor(0, Pose3.identity(), np.eye(6) * 0.01))
    g.optimize()
    g.add_pose(1, Pose3.identity())  # no factor yet: zero information
    with pytest.raises(NumericalError):
        g.pose_marginal(1)
    g.add_landmark(0, np.ones(3))
    with pytest.raises(NumericalError):
        g.joint_marginals(0, [0])


# -- numerical breakdown -----------------------------------------------------

def test_singular_pose_block_raises_numerical_error():
    g = gr.FactorGraph()
    g.add_pose(0, Pose3.identity())
    g.add_pose(1, Pose3.identity())  # no factor: zero information
    g.add_factor(fx.PriorFactor(0, Pose3.identity(), np.eye(6) * 0.01))
    with pytest.raises(NumericalError):
        g.pose_marginal(0)


def test_singular_schur_complement_raises_numerical_error():
    g = gr.FactorGraph()
    g.add_pose(0, Pose3.identity())
    g.add_factor(fx.PriorFactor(0, Pose3.identity(), np.eye(6) * 0.01))
    g.add_landmark(0, np.ones(3))  # never observed: zero information
    with pytest.raises(NumericalError):
        g.joint_marginals(0, [0])


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
    gr.em_reweight(g, iterations=1)
    weighted = [f for f in g.factors if isinstance(f, fx.WeightedObservationFactor)]
    by_lm = {f.landmark_key: f.weight for f in weighted}
    # landmark 0 matches the measurement exactly; landmark 1 sits 10 sigma away
    assert by_lm[0] > 0.99
    assert by_lm[0] + by_lm[1] == pytest.approx(1.0, abs=1e-9)


def test_em_reweight_fixed_point():
    rng = np.random.default_rng(7)
    g = observed_graph(rng, [0.5, 0.5])
    gr.em_reweight(g, iterations=1)
    pose_before = g.poses[0]
    lm_before = {k: v.copy() for k, v in g.landmarks.items()}
    report = gr.em_reweight(g, iterations=1)
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
    before = g.error()
    report = gr.em_reweight(g, iterations=1)
    assert report.final_error <= before + 1e-12


def test_em_reweight_non_spd_innovation_raises_numerical_error():
    g = observed_graph(np.random.default_rng(11), [0.5, 0.5],
                       innovation_covs=[np.eye(3) * 0.01, -np.eye(3) * 0.01])
    with pytest.raises(NumericalError):
        gr.em_reweight(g, iterations=1)


def test_summary_counts():
    rng = np.random.default_rng(8)
    poses = chain_poses(rng, 3)
    g = build_chain_graph(poses)
    s = g.summary()
    assert s["num_poses"] == 3
    assert s["factor_counts"]["PriorFactor"] == 1
    assert s["factor_counts"]["BetweenFactor"] == 2
