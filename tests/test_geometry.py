import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, logm

from objectslam import geometry as geo
from objectslam.geometry import Pose3, compose, inverse, local, measurement_model_h, retract

from oracles import measurement_jacobians, quat_matrix_entries, se3_jr_inv_series, se3_v_series


def random_pose(rng, max_angle=np.pi * 0.9, max_trans=5.0):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-max_angle, max_angle)
    q = geo.so3_exp_quat(axis * angle)
    return Pose3(q, rng.uniform(-max_trans, max_trans, size=3))


def yaw_pose(yaw, translation):
    return Pose3(geo.so3_exp_quat(np.array([0.0, 0.0, yaw])), np.asarray(translation, float))


def hat6(xi):
    out = np.zeros((4, 4))
    out[:3, :3] = geo.skew(xi[:3])
    out[:3, 3] = xi[3:]
    return out


def matrix_exp_pose(xi):
    # independent oracle for the exponential map: matrix exponential of the hat form
    m = expm(hat6(np.asarray(xi, float)))
    q = quat_from_matrix(m[:3, :3])
    return Pose3(q, m[:3, 3])


def quat_from_matrix(r):
    # Shepperd's method, enough for test oracles
    tr = np.trace(r)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2
        return np.array([0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s])
    i = int(np.argmax(np.diag(r)))
    j, k = (i + 1) % 3, (i + 2) % 3
    s = np.sqrt(r[i, i] - r[j, j] - r[k, k] + 1.0) * 2
    q = np.zeros(4)
    q[0] = (r[k, j] - r[j, k]) / s
    q[1 + i] = 0.25 * s
    q[1 + j] = (r[j, i] + r[i, j]) / s
    q[1 + k] = (r[k, i] + r[i, k]) / s
    return q


def test_compose_identity_and_inverse():
    rng = np.random.default_rng(0)
    p = random_pose(rng)
    ident = Pose3.identity()
    q = compose(ident, p)
    assert np.allclose(q.rotation, p.rotation, atol=1e-12)
    assert np.allclose(q.translation, p.translation, atol=1e-12)
    r = compose(p, inverse(p))
    assert np.allclose(r.translation, 0.0, atol=1e-9)
    assert np.allclose(np.abs(r.rotation[0]), 1.0, atol=1e-9)


def test_compose_matches_homogeneous_matrix_oracle():
    a = yaw_pose(np.pi / 2, [1.0, 0.0, 0.0])
    b = yaw_pose(np.pi / 2, [0.0, 0.0, 0.0])
    c = compose(a, b)
    m = a.matrix() @ b.matrix()
    assert np.allclose(c.matrix(), m, atol=1e-12)
    # yaw(90)+t then yaw(90): total yaw 180, translation unchanged
    assert np.allclose(c.translation, [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(c.rotation_matrix(), geo.quat_to_matrix(geo.so3_exp_quat([0, 0, np.pi])), atol=1e-12)

    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = random_pose(rng), random_pose(rng)
        assert np.allclose(compose(a, b).matrix(), a.matrix() @ b.matrix(), atol=1e-10)


def test_compose_associative():
    rng = np.random.default_rng(2)
    a, b, c = (random_pose(rng) for _ in range(3))
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert np.allclose(left.matrix(), right.matrix(), atol=1e-9)


def test_measurement_model_cases():
    lm = np.array([1.0, 2.0, 3.0])
    assert np.allclose(measurement_model_h(Pose3.identity(), lm), lm)
    p = Pose3(np.array([1, 0, 0, 0.0]), np.array([1.0, 0, 0]))
    assert np.allclose(measurement_model_h(p, np.array([1.0, 0, 0])), 0.0)
    # yaw 90 pose, landmark on +x: R^-1 * l oracle
    p = yaw_pose(np.pi / 2, [0, 0, 0])
    expect = p.rotation_matrix().T @ np.array([1.0, 0, 0])
    got = measurement_model_h(p, np.array([1.0, 0, 0]))
    assert np.allclose(got, expect, atol=1e-12)
    assert np.allclose(got, [0.0, -1.0, 0.0], atol=1e-12)


def test_measurement_model_inverts():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = random_pose(rng)
        lm = rng.normal(size=3)
        assert np.allclose(p.apply(measurement_model_h(p, lm)), lm, atol=1e-9)


def test_h_is_isometry():
    rng = np.random.default_rng(4)
    p = random_pose(rng)
    pts = rng.normal(size=(3, 3))
    mapped = np.array([measurement_model_h(p, x) for x in pts])
    for i in range(3):
        for j in range(3):
            d0 = np.linalg.norm(pts[i] - pts[j])
            d1 = np.linalg.norm(mapped[i] - mapped[j])
            assert abs(d0 - d1) < 1e-9


def test_exp_matches_matrix_exponential_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        xi = rng.uniform(-1.0, 1.0, size=6)
        got = Pose3.from_tangent(xi)
        want = matrix_exp_pose(xi)
        assert np.allclose(got.matrix(), want.matrix(), atol=1e-9)


def test_log_matches_matrix_logarithm_oracle():
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = random_pose(rng, max_angle=2.5)
        xi = geo.se3_log(p.rotation_matrix(), p.translation)
        m = logm(p.matrix())
        want = np.concatenate([[m[2, 1], m[0, 2], m[1, 0]], m[:3, 3]])
        assert np.allclose(xi, np.real(want), atol=1e-8)


def test_retract_local_round_trip():
    rng = np.random.default_rng(7)
    p = random_pose(rng)
    assert np.allclose(retract(p, np.zeros(6)).matrix(), p.matrix(), atol=1e-12)
    assert np.allclose(local(p, p), 0.0, atol=1e-12)
    delta = np.full(6, 0.01)
    assert np.allclose(local(p, retract(p, delta)), delta, atol=1e-8)


def test_retract_local_random_suite():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        p = random_pose(rng)
        delta = rng.uniform(-1, 1, size=6)
        delta *= rng.uniform(0, 0.1) / max(np.linalg.norm(delta), 1e-12)
        back = local(p, retract(p, delta))
        assert np.allclose(back, delta, atol=1e-8)


def test_rotation_kernels_match_entrywise_formulas_in_any_batch():
    # quat_to_matrix and quat_mul are one small matrix product over the
    # products of the components, each output a sum of two of them, so the
    # matrix equals the entrywise formulas bit for bit and a row gives the
    # same bits alone as in a batch. The product is checked through what it
    # means: R(p q) = R(p) R(q), and R(q) v = q (0, v) q^*.
    rng = np.random.default_rng(14)
    p = geo.quat_normalize(rng.normal(size=(300, 4)))
    q = geo.quat_normalize(rng.normal(size=(300, 4)))
    v = rng.normal(size=(300, 3))
    rot, product = geo.quat_to_matrix(q), geo.quat_mul(p, q)
    assert np.array_equal(rot, quat_matrix_entries(q))
    for i in (0, 1, 150, 299):
        assert np.array_equal(geo.quat_to_matrix(q[i]), rot[i])
        assert np.array_equal(geo.quat_mul(p[i], q[i]), product[i])
        assert np.array_equal(geo.quat_to_matrix(q[i:i + 2]), rot[i:i + 2])
    assert np.allclose(geo.quat_to_matrix(product), geo.quat_to_matrix(p) @ rot, rtol=0, atol=1e-14)
    assert np.allclose(np.swapaxes(rot, 1, 2) @ rot, np.eye(3), rtol=0, atol=1e-14)
    pure = np.concatenate([np.zeros((300, 1)), v], axis=1)
    sandwich = geo.quat_mul(geo.quat_mul(q, pure), geo.quat_conj(q))
    assert np.allclose(sandwich[:, 0], 0.0, atol=1e-14)
    assert np.allclose(sandwich[:, 1:], geo.quat_rotate(q, v), rtol=0, atol=1e-14)


def test_scalar_compose_and_inverse_match_the_rotation_kernels():
    # compose and inverse compute on Python floats in quat_mul's and
    # quat_rotate's operation order: the same bits as those kernels, at the
    # identity, near and at pi, and for poses built from non-unit quaternions
    # (normalized by Pose3) or kept as given (Pose3._trusted).
    rng = np.random.default_rng(15)
    axes = geo.quat_normalize(rng.normal(size=(40, 3)))
    angles = np.concatenate([[0.0, np.pi, np.pi - 1e-9, np.pi - 1e-15],
                             rng.uniform(-np.pi, np.pi, 36)])
    quats = np.concatenate([geo.so3_exp_quat(axes * angles[:, None]), [[0.0, 1.0, 0.0, 0.0]],
                            rng.normal(size=(20, 4)) * rng.uniform(0.1, 10.0, (20, 1))])
    poses = [Pose3(q, rng.normal(size=3)) for q in quats]
    poses += [Pose3._trusted(q, t)
              for q, t in zip(rng.normal(size=(10, 4)), rng.normal(size=(10, 3)))]
    poses.append(Pose3.identity())
    for a in poses:
        conj = geo.quat_conj(a.rotation)
        want = Pose3(conj, -geo.quat_rotate(conj, a.translation))
        got = inverse(a)
        assert np.array_equal(got.rotation, want.rotation)
        assert np.array_equal(got.translation, want.translation)
        for b in (poses[0], poses[1], poses[-1], poses[int(rng.integers(len(poses)))]):
            want = Pose3(geo.quat_mul(a.rotation, b.rotation),
                         geo.quat_rotate(a.rotation, b.translation) + a.translation)
            got = compose(a, b)
            assert np.array_equal(got.rotation, want.rotation)
            assert np.array_equal(got.translation, want.translation)


def unit_axis(components):
    axis = np.array(components)
    return axis / np.linalg.norm(axis)


axes = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda c: np.linalg.norm(c) > 0.1)
vectors = st.tuples(*[st.floats(-3.0, 3.0)] * 3)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(axis=axes, angle=st.floats(0.0, np.pi - 1e-6), rho=vectors)
def test_log_inverts_exp(axis, angle, rho):
    # se3_log(se3_exp(xi)) = xi for |omega| < pi, through the rotation matrix
    # se3_log takes
    xi = np.concatenate([angle * unit_axis(axis), rho])
    q, t = geo.se3_exp(xi)
    assert np.allclose(geo.se3_log(geo.quat_to_matrix(q), t), xi, rtol=0, atol=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), axis=axes, angle=st.floats(0.0, np.pi - 1e-6),
       rho=vectors)
def test_local_inverts_retract(seed, axis, angle, rho):
    a = random_pose(np.random.default_rng(seed))
    d = np.concatenate([angle * unit_axis(axis), rho])
    assert np.allclose(local(a, retract(a, d)), d, rtol=0, atol=1e-11)


def test_quaternion_norm_preserved_under_many_compositions():
    rng = np.random.default_rng(9)
    p = Pose3.identity()
    for _ in range(10_000):
        step = Pose3(rng.normal(size=4), rng.normal(size=3) * 0.01)
        p = compose(p, step)
    assert abs(np.linalg.norm(p.rotation) - 1.0) < 1e-6


def numeric_jr_inv(xi, h=1e-6):
    """Central differences of d -> Log(Exp(xi) Exp(d)) at d = 0."""
    base = Pose3.from_tangent(xi)
    num = np.zeros((6, 6))
    for k in range(6):
        d = np.zeros(6)
        d[k] = h
        plus = compose(base, Pose3.from_tangent(d))
        minus = compose(base, Pose3.from_tangent(-d))
        num[:, k] = (geo.se3_log(plus.rotation_matrix(), plus.translation)
                     - geo.se3_log(minus.rotation_matrix(), minus.translation)) / (2 * h)
    return num


def test_jr_inv_matches_numeric_bch():
    # Log(Exp(xi) Exp(d)) - Log(Exp(xi)) ~= jr_inv(xi) d for small d
    rng = np.random.default_rng(10)
    for _ in range(30):
        xi = rng.uniform(-1.0, 1.0, size=6)
        jr = geo.se3_jr_inv(xi)
        num = numeric_jr_inv(xi)
        assert np.allclose(jr, num, atol=1e-5)


def test_jr_inv_closed_form_matches_series_and_finite_differences():
    # from zero rotation through the series/closed-form switch up to pi - 1e-3
    switch = geo._SE3_SERIES_ANGLE
    angles = np.concatenate([[0.0, 1e-12, 1e-8, 1e-4, 1e-2, 0.1, switch - 1e-9, switch,
                              switch + 1e-9, 1.0, 2.0, 3.0, np.pi - 1e-3],
                             np.linspace(0.0, np.pi - 1e-3, 60)])
    rng = np.random.default_rng(12)
    xis = []
    for theta in angles:
        axis = rng.normal(size=3)
        xis.append(np.concatenate([theta * axis / np.linalg.norm(axis),
                                   rng.uniform(-3.0, 3.0, 3)]))
    batched = geo.se3_jr_inv(np.array(xis))
    for xi, jr in zip(xis, batched):
        want = se3_jr_inv_series(xi)
        assert np.linalg.norm(jr - want) / np.linalg.norm(want) < 1e-10, xi
        assert np.allclose(jr, numeric_jr_inv(xi), atol=1e-5), xi


def v_matrices(omegas, inverse):
    """V (or V^-1) of each rotation vector, column by column: the cross-product
    kernel of se3_exp (se3_log) applied to the unit vectors."""
    coeffs = geo._se3_coeffs(np.linalg.norm(omegas, axis=-1)[:, None])
    columns = geo._v_times(omegas[:, None], coeffs, np.eye(3), inverse=inverse)
    return np.swapaxes(columns, -1, -2)


def test_v_matrices_match_their_series_across_small_angles():
    # V and V^-1 of se3_exp / se3_log read the coefficients se3_jr_inv reads;
    # a closed form of (1 - cos) / theta^2 just above a small switch angle
    # would lose digits (about 1e-13 in V at theta = 1e-4)
    angles = np.concatenate([[0.0, 1e-12, 1e-8, 1e-4 - 1e-9, 1e-4, 1e-4 + 1e-8, 1.0001e-4],
                             np.geomspace(1e-5, 1e-2, 40)])
    rng = np.random.default_rng(13)
    omegas = []
    for theta in angles:
        axis = rng.normal(size=3)
        omegas.append(theta * axis / np.linalg.norm(axis))
    v, v_inv = (v_matrices(np.array(omegas), inverse) for inverse in (False, True))
    for omega, got, got_inv in zip(omegas, v, v_inv):
        assert np.abs(got - se3_v_series(omega)).max() < 2e-15, omega
        assert np.abs(got_inv - se3_v_series(omega, inverse=True)).max() < 2e-15, omega
        assert np.abs(got @ got_inv - np.eye(3)).max() < 2e-15, omega


def test_adjoint_identity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = random_pose(rng)
        xi = rng.uniform(-0.5, 0.5, size=6)
        lhs = compose(compose(p, Pose3.from_tangent(xi)), inverse(p))
        ad = geo.se3_adjoint(p.rotation, p.translation)
        rhs = Pose3.from_tangent(ad @ xi)
        assert np.allclose(lhs.matrix(), rhs.matrix(), atol=1e-6)


def test_measurement_jacobians_match_finite_differences():
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(50):
        p = random_pose(rng)
        lm = rng.normal(size=3) * 2.0
        h_pose, h_lm = measurement_jacobians(p, lm)
        num_pose = np.zeros((3, 6))
        for k in range(6):
            d = np.zeros(6)
            d[k] = h
            num_pose[:, k] = (measurement_model_h(retract(p, d), lm)
                              - measurement_model_h(retract(p, -d), lm)) / (2 * h)
        num_lm = np.zeros((3, 3))
        for k in range(3):
            d = np.zeros(3)
            d[k] = h
            num_lm[:, k] = (measurement_model_h(p, lm + d) - measurement_model_h(p, lm - d)) / (2 * h)
        assert np.allclose(h_pose, num_pose, atol=1e-5)
        assert np.allclose(h_lm, num_lm, atol=1e-5)


def test_trajectory_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    traj = [(0.2 * k, random_pose(rng)) for k in range(25)]
    path = tmp_path / "traj.txt"
    geo.save_trajectory(path, traj)
    back = geo.load_trajectory(path)
    assert len(back) == len(traj)
    for (t0, p0), (t1, p1) in zip(traj, back):
        assert abs(t0 - t1) < 1e-6
        assert np.allclose(p0.translation, p1.translation, atol=1e-8)
        assert min(np.linalg.norm(p0.rotation - p1.rotation),
                   np.linalg.norm(p0.rotation + p1.rotation)) < 1e-8


@pytest.mark.parametrize("line", ["1.0 2.0 3.0", "0.0 1 2 3 0 0 0 abc", "0.0 1 2 nan 0 0 0 1",
                                  "0.0 1 2 3 0 0 0 0"],
                         ids=["short", "not-a-number", "not-finite", "zero-quaternion"])
def test_trajectory_rejects_malformed(tmp_path, line):
    from objectslam.errors import DataFormatError

    path = tmp_path / "bad.txt"
    path.write_text(f"0.0 0 0 0 0 0 0 1\n{line}\n")
    with pytest.raises(DataFormatError) as raised:
        geo.load_trajectory(path)
    assert str(raised.value).startswith(f"{path}:2: ")
