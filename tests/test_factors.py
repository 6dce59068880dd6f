import numpy as np
import pytest

from objectslam import factors as fx
from objectslam.errors import DataFormatError, NumericalError
from objectslam.geometry import Pose3, retract
from oracles import Values, factor_error, factor_linearize, mixture_costs

from test_geometry import random_pose
from test_association import random_spd


def fd_check(factor, values, step=1e-6, rtol=1e-5, atol=1e-7):
    """Central finite differences of the whitened residual per variable."""
    r0, jacobians = factor_linearize(factor, values)
    for (kind, key), jac in jacobians.items():
        dim = jac.shape[1]
        num = np.zeros_like(jac)
        for k in range(dim):
            d = np.zeros(dim)
            d[k] = step
            num[:, k] = (_residual_perturbed(factor, values, kind, key, d)
                         - _residual_perturbed(factor, values, kind, key, -d)) / (2 * step)
        assert np.allclose(jac, num, rtol=rtol, atol=atol), (kind, key)


def _residual_perturbed(factor, values, kind, key, delta):
    if kind == "x":
        poses = dict(values.poses)
        poses[key] = retract(values.poses[key], delta)
        shifted = Values(poses, values.landmarks)
    else:
        landmarks = dict(values.landmarks)
        landmarks[key] = values.landmarks[key] + delta
        shifted = Values(values.poses, landmarks)
    r, _ = factor_linearize(factor, shifted)
    return r


def random_values(rng, n_poses=2, n_landmarks=2):
    poses = {i: random_pose(rng, max_angle=1.2, max_trans=2.0) for i in range(n_poses)}
    landmarks = {j: rng.uniform(-3, 3, size=3) for j in range(n_landmarks)}
    return Values(poses, landmarks)


def test_prior_jacobian_fd():
    rng = np.random.default_rng(0)
    for _ in range(100):
        values = random_values(rng)
        factor = fx.PriorFactor(0, random_pose(rng, max_angle=1.0), random_spd(rng, 6, 0.05))
        fd_check(factor, values)


def test_between_jacobian_fd():
    rng = np.random.default_rng(1)
    for _ in range(100):
        values = random_values(rng)
        factor = fx.BetweenFactor(0, 1, random_pose(rng, max_angle=1.0), random_spd(rng, 6, 0.05))
        fd_check(factor, values)


def test_observation_jacobian_fd():
    rng = np.random.default_rng(2)
    for _ in range(100):
        values = random_values(rng)
        factor = fx.ObservationFactor(0, 0, rng.uniform(-2, 2, size=3), random_spd(rng, 3, 0.05))
        fd_check(factor, values)


def test_weighted_observation_jacobian_fd():
    rng = np.random.default_rng(3)
    for _ in range(100):
        values = random_values(rng)
        factor = fx.WeightedObservationFactor(0, 0, rng.uniform(-2, 2, size=3),
                                              random_spd(rng, 3, 0.05),
                                              weight=rng.uniform(0.05, 1.0))
        fd_check(factor, values)


def make_mixture(rng, values, n_components=3):
    """Mixture whose active component dominates, so FD stays on one branch."""
    pose = values.poses[0]
    keys = list(range(n_components))
    target = rng.integers(n_components)
    z = fx.observation_residuals(pose.rotation, pose.translation,
                                 values.landmarks[target], np.zeros(3))[1]
    z = z + rng.normal(scale=0.05, size=3)
    weights = rng.uniform(0.2, 1.0, size=n_components)
    weights /= weights.sum()
    return fx.MixtureObservationFactor(0, keys, z, np.eye(3) * 0.01, weights)


def test_mixture_jacobian_fd():
    rng = np.random.default_rng(4)
    for _ in range(100):
        values = random_values(rng, n_poses=1, n_landmarks=3)
        factor = make_mixture(rng, values)
        fd_check(factor, values)


def test_mixture_error_is_min_over_components():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        values = random_values(rng, n_poses=1, n_landmarks=3)
        gamma = random_spd(rng, 3, 0.05)
        weights = rng.uniform(0.1, 1.0, size=3)
        weights /= weights.sum()
        z = rng.uniform(-2, 2, size=3)
        factor = fx.MixtureObservationFactor(0, [0, 1, 2], z, gamma, weights)
        # independent evaluation: 0.5 r^T Gamma^-1 r - log w per component
        pose = values.poses[0]
        gamma_inv = np.linalg.inv(gamma)
        costs = []
        for j in range(3):
            r = pose.rotation_matrix().T @ (values.landmarks[j] - pose.translation) - z
            costs.append(0.5 * float(r @ gamma_inv @ r) - np.log(weights[j]))
        assert factor_error(factor, values) == pytest.approx(min(costs), rel=1e-12, abs=1e-12)


def test_mixture_equal_weights_example():
    # component whitened costs {5, 1} with equal weights: error = 1 + log 2
    values = Values({0: Pose3.identity()},
                    {0: np.array([np.sqrt(10.0), 0, 0]), 1: np.array([np.sqrt(2.0), 0, 0])})
    factor = fx.MixtureObservationFactor(0, [0, 1], np.zeros(3), np.eye(3), [0.5, 0.5])
    assert factor_error(factor, values) == pytest.approx(1.0 + np.log(2.0), abs=1e-12)
    assert int(np.argmin(mixture_costs(factor, values))) == 1


def test_observation_zero_residual():
    pose = Pose3.identity()
    lm = np.array([1.0, 2.0, 3.0])
    factor = fx.ObservationFactor(0, 0, lm.copy(), np.eye(3) * 0.1)
    assert factor_error(factor, Values({0: pose}, {0: lm})) == pytest.approx(0.0)


def test_weighted_error_scaling_example():
    # whitened residual norm^2 = 4, w = 0.5 -> error = 0.5 * 0.5 * 4 = 1.0
    values = Values({0: Pose3.identity()}, {0: np.array([2.0, 0.0, 0.0])})
    factor = fx.WeightedObservationFactor(0, 0, np.zeros(3), np.eye(3), weight=0.5)
    assert factor_error(factor, values) == pytest.approx(1.0, abs=1e-12)


def test_mixture_validates_weights():
    with pytest.raises(ValueError):
        fx.MixtureObservationFactor(0, [0, 1], np.zeros(3), np.eye(3), [0.5, 0.2])
    with pytest.raises(ValueError):
        fx.MixtureObservationFactor(0, [0], np.zeros(3), np.eye(3), [])


def test_sqrt_information_rejects_non_spd():
    with pytest.raises(NumericalError):
        fx.sqrt_information(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_sqrt_information_whitens():
    rng = np.random.default_rng(6)
    for _ in range(20):
        sigma = random_spd(rng, 3, 0.5)
        w = fx.sqrt_information(sigma)
        assert np.allclose(w.T @ w, np.linalg.inv(sigma), atol=1e-8)


NAN_3 = np.array([0.0, np.nan, 0.0])
NAN_COV = np.where(np.eye(3) > 0, 0.01, np.nan)
INF_COV = np.diag(np.full(6, np.inf))


@pytest.mark.parametrize("make", [
    lambda: fx.PriorFactor(0, Pose3.identity(), INF_COV),
    lambda: fx.PriorFactor(0, Pose3.identity(), np.diag([np.nan] + [0.01] * 5)),
    lambda: fx.BetweenFactor(0, 1, Pose3.identity(), INF_COV),
    lambda: fx.ObservationFactor(0, 0, NAN_3, np.eye(3)),
    lambda: fx.ObservationFactor(0, 0, np.ones(3), NAN_COV),
    lambda: fx.WeightedObservationFactor(0, 0, NAN_3, np.eye(3), 0.5),
    lambda: fx.WeightedObservationFactor(0, 0, np.ones(3), np.eye(3), np.nan),
    lambda: fx.WeightedObservationFactor(0, 0, np.ones(3), np.eye(3), 0.5,
                                         innovation_cov=np.diag([np.inf, 1.0, 1.0])),
    lambda: fx.MixtureObservationFactor(0, [0, 1], NAN_3, np.eye(3), [0.5, 0.5]),
    lambda: fx.MixtureObservationFactor(0, [0, 1], np.ones(3), np.eye(3), [np.nan, np.nan]),
], ids=["prior-inf-cov", "prior-nan-cov", "between-inf-cov", "observation-nan-point",
        "observation-nan-cov", "weighted-nan-point", "weighted-nan-weight",
        "weighted-inf-innovation", "mixture-nan-point", "mixture-nan-weights"])
def test_factor_rejects_non_finite_input(make):
    with pytest.raises(DataFormatError):
        make()


def test_sqrt_information_rejects_non_finite_before_cache():
    # np.linalg.cholesky returns NaN for a NaN input instead of raising
    for _ in range(2):
        with pytest.raises(DataFormatError):
            fx.sqrt_information(NAN_COV)
