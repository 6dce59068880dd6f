"""SE(3) pose algebra shared by the whole toolkit.

Conventions, fixed repo-wide:
  * unit quaternions stored as (w, x, y, z)
  * tangent vectors are (rx, ry, rz, tx, ty, tz) -- rotation first
  * right perturbations: retract(p, d) = p * exp(d)

Points and tangents are plain float ndarrays of shape (3,) and (6,).
Most helpers broadcast over leading axes so the optimizer can run them on
stacked arrays without a Python loop.

Kernel forms. The optimizer calls these on batches of a few to a few hundred
rows, where each numpy call costs more than its arithmetic, so each kernel
is a small fixed number of array operations. A quaternion product and a
quaternion's rotation matrix are one product table applied to the pairwise
products of the components. ``se3_log`` takes its rotation as a matrix,
which the factor kernels convert each row batch's quaternions to once.
The V and V^-1 of ``se3_exp`` / ``se3_log`` (W = skew(omega)) are applied
as cross products, with W^2 u = omega (omega . u) - theta^2 u, and
``se3_jr_inv`` reduces its products of skew matrices to outer products of
omega and rho, so no (n, 3, 3) skew product is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# skew(v), row-major: [[0, -z, y], [z, 0, -x], [-y, x, 0]]
_SKEW_FROM = np.array([0, 2, 1, 2, 0, 0, 1, 0, 0])
_SKEW_SIGN = np.array([0.0, -1.0, 1.0, 1.0, 0.0, -1.0, -1.0, 1.0, 0.0])


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix, batched over leading axes."""
    v = np.asarray(v, dtype=float)
    return (v[..., _SKEW_FROM] * _SKEW_SIGN).reshape(v.shape[:-1] + (3, 3))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.cross carries heavy axis-normalization overhead on small arrays
    out = np.empty(np.broadcast(a, b).shape)
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products over the last axis, with it kept as length 1."""
    return np.einsum("...i,...i->...", a, b)[..., None]


# ---------------------------------------------------------------------------
# quaternion helpers (broadcast over leading axes, layout (w, x, y, z))
# ---------------------------------------------------------------------------

# Quaternion products and rotation matrices come from one small matrix
# product: the pairwise products of the components times a table of small
# integers. Each output of the product sums at most two of its products, so it
# has the same bits whichever order a BLAS kernel adds in, and a row gives the
# same bits in a batch of any size. Both give the bits of the entrywise
# formulas, w = a_w b_w - (a_x b_x + a_y b_y + a_z b_z),
# v = (a_w b_v + b_w a_v) + a_v x b_v and R_00 = 1 - 2 (y^2 + z^2), ...,
# summed in that order.

def _quat_product_table() -> np.ndarray:
    """(16, 8): (a_i b_j) @ table, a_i b_j in row 4 i + j, gives two partial
    sums of each component of a b: a_x b_x + a_y b_y and a_z b_z for w, and
    a_w b_v + b_w a_v and (a_v x b_v) for v."""
    table = np.zeros((16, 8))
    for column, terms in enumerate([((1, 1, 1), (2, 2, 1)), ((0, 1, 1), (1, 0, 1)),
                                    ((0, 2, 1), (2, 0, 1)), ((0, 3, 1), (3, 0, 1)),
                                    ((3, 3, 1),), ((2, 3, 1), (3, 2, -1)),
                                    ((3, 1, 1), (1, 3, -1)), ((1, 2, 1), (2, 1, -1))]):
        for i, j, sign in terms:
            table[4 * i + j, column] = sign
    return table


_PAIR_I, _PAIR_J = np.divmod(np.arange(16), 4)
_QUAT_PRODUCT = _quat_product_table()

# R - I of a unit quaternion, row-major, = (q_i q_j) @ _QUAT_MATRIX over the
# pairs below; R = I - 2 (|v|^2 I - v v^T) + 2 w skew(v) for q = (w, v)
_MATRIX_I = np.array([0, 0, 0, 1, 1, 1, 2, 2, 3])
_MATRIX_J = np.array([1, 2, 3, 1, 2, 3, 2, 3, 3])
_QUAT_MATRIX = np.array([
    # 00  01  02  10  11  12  20  21  22        q_i q_j
    [0., 0., 0., 0., 0., -2, 0., 2., 0.],   # w x
    [0., 0., 2., 0., 0., 0., -2, 0., 0.],   # w y
    [0., -2, 0., 2., 0., 0., 0., 0., 0.],   # w z
    [0., 0., 0., 0., -2, 0., 0., 0., -2],   # x x
    [0., 2., 0., 2., 0., 0., 0., 0., 0.],   # x y
    [0., 0., 2., 0., 0., 0., 2., 0., 0.],   # x z
    [-2, 0., 0., 0., 0., 0., 0., 0., -2],   # y y
    [0., 0., 0., 0., 0., 2., 0., 2., 0.],   # y z
    [-2, 0., 0., 0., -2, 0., 0., 0., 0.],   # z z
])
_EYE_ROW = np.eye(3).ravel()


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    products = a[..., _PAIR_I] * b[..., _PAIR_J]
    parts = products @ _QUAT_PRODUCT
    out = parts[..., :4] + parts[..., 4:]
    out[..., 0] = products[..., 0] - out[..., 0]
    return out


def quat_conj(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    out = q.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of unit quaternion(s), (..., 3, 3)."""
    q = np.asarray(q, dtype=float)
    rot = (q[..., _MATRIX_I] * q[..., _MATRIX_J]) @ _QUAT_MATRIX + _EYE_ROW
    return rot.reshape(q.shape[:-1] + (3, 3))


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector(s) v by quaternion(s) q."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    qv = q[..., 1:]
    w = q[..., :1]
    t = 2.0 * _cross(qv, v)
    return v + w * t + _cross(qv, t)


def quat_from_rotation_matrix(rot: np.ndarray) -> np.ndarray:
    """Unit quaternion of a single 3x3 rotation matrix (Shepperd's method)."""
    rot = np.asarray(rot, dtype=float)
    trace = np.trace(rot)
    if trace > 0:
        s = np.sqrt(trace + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (rot[2, 1] - rot[1, 2]) / s,
                      (rot[0, 2] - rot[2, 0]) / s,
                      (rot[1, 0] - rot[0, 1]) / s])
        return quat_normalize(q)
    i = int(np.argmax(np.diag(rot)))
    j, k = (i + 1) % 3, (i + 2) % 3
    s = np.sqrt(rot[i, i] - rot[j, j] - rot[k, k] + 1.0) * 2.0
    q = np.zeros(4)
    q[0] = (rot[k, j] - rot[j, k]) / s
    q[1 + i] = 0.25 * s
    q[1 + j] = (rot[j, i] + rot[i, j]) / s
    q[1 + k] = (rot[k, i] + rot[i, k]) / s
    return quat_normalize(q)


def _angle(omega: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...i,...i->...", omega, omega))


def so3_exp_quat(omega: np.ndarray) -> np.ndarray:
    """Rotation-vector exponential, returned as a unit quaternion."""
    omega = np.asarray(omega, dtype=float)
    return _exp_quat(omega, _se3_coeffs(_angle(omega)))


def _exp_quat(omega: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """(cos(theta/2), sin(theta/2) / theta * omega) from the _se3_coeffs of |omega|."""
    return np.concatenate([coeffs[..., _COS_HALF, None],
                           coeffs[..., _SINC_HALF, None] * omega], axis=-1)


# R21 - R12, R02 - R20, R10 - R01 of a row-major rotation matrix
_VEE_PLUS, _VEE_MINUS = np.array([7, 2, 3]), np.array([5, 6, 1])


def _so3_log(rot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation vector (angle in [0, pi]) of rotation matrices, and its angle.

    sin(theta) times the axis is half the vee of R - R^T and cos(theta) is
    (tr R - 1) / 2. Past pi / 2, where sin(theta) loses digits, the axis
    comes from the symmetric part instead: (R + R^T) / 2 - cos(theta) I =
    (1 - cos(theta)) a a^T, read off its largest diagonal entry's column."""
    flat = rot.reshape(rot.shape[:-2] + (9,))
    v = 0.5 * (flat[..., _VEE_PLUS] - flat[..., _VEE_MINUS])
    cos = 0.5 * (np.einsum("...ii->...", rot) - 1.0)
    sin = _angle(v)
    theta = np.arctan2(sin, cos)
    # theta / sin(theta), 1 to rounding below sin = 1e-8; the floor only keeps
    # a zero rotation's 0 / 0 out
    omega = (theta / np.maximum(sin, 1e-300))[..., None] * v
    far = cos < 0.0
    if far.any():
        c = cos[far][:, None]
        sym = 0.5 * (rot[far] + np.swapaxes(rot[far], -1, -2)) - c[:, :, None] * np.eye(3)
        rows = np.arange(len(sym))
        k = np.argmax(np.einsum("nii->ni", sym), axis=1)
        axis = sym[rows, :, k] / np.sqrt(sym[rows, k, k][:, None] * (1.0 - c))
        axis *= np.where(np.sum(axis * v[far], axis=1) < 0.0, -1.0, 1.0)[:, None]
        omega[far] = theta[far][:, None] * axis
    return omega, theta


def _v_times(omega: np.ndarray, coeffs: np.ndarray, u: np.ndarray,
             inverse: bool = False) -> np.ndarray:
    """V u of se3_exp or V^-1 u of se3_log as cross products, from the
    _se3_coeffs of theta = |omega|. With W = skew(omega), W u = omega x u and
    W^2 u = omega (omega . u) - theta^2 u, V = I + b W + a W^2 gives
    V u = (sin(theta) / theta) u + b omega x u + a (omega . u) omega, and
    V^-1 = I - W / 2 + c W^2 gives
    V^-1 u = (theta / 2) cot(theta / 2) u - omega x u / 2 + c (omega . u) omega."""
    if inverse:
        first, cross, second = coeffs[..., _K, None], -0.5, coeffs[..., _C, None]
    else:
        first, cross, second = (coeffs[..., _SINC, None], coeffs[..., _B, None],
                                coeffs[..., _A, None])
    return first * u + cross * _cross(omega, u) + (second * _dot(omega, u)) * omega


def se3_exp(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exponential map: tangent (..., 6) -> (quaternion, translation)."""
    xi = np.asarray(xi, dtype=float)
    omega = xi[..., :3]
    coeffs = _se3_coeffs(_angle(omega))
    return _exp_quat(omega, coeffs), _v_times(omega, coeffs, xi[..., 3:])


def se3_log(rot: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Logarithm map: (rotation matrix, translation) -> tangent (..., 6)."""
    omega, theta = _so3_log(np.asarray(rot, dtype=float))
    rho = _v_times(omega, _se3_coeffs(theta), np.asarray(t, dtype=float), inverse=True)
    return np.concatenate([omega, rho], axis=-1)


def se3_adjoint(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Adjoint of the transform, mapping right-tangents: Exp(Ad x) = T Exp(x) T^-1."""
    rot = quat_to_matrix(q)
    out = np.zeros(rot.shape[:-2] + (6, 6))
    out[..., :3, :3] = rot
    out[..., 3:, 3:] = rot
    out[..., 3:, :3] = skew(t) @ rot
    return out


def _se3_series() -> np.ndarray:
    """(8, 10) Taylor coefficients in theta^2 of the ten _se3_coeffs."""
    from fractions import Fraction
    from math import factorial

    # B_2, B_4, ..., B_16
    bernoulli = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
                 Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510)]

    def c(j):
        return abs(bernoulli[j]) / factorial(2 * j + 2)

    columns = [c,
               lambda j: Fraction((-1) ** j, factorial(2 * j + 3)),
               lambda j: Fraction((-1) ** j * (2 * j + 2), factorial(2 * j + 4)),
               lambda j: Fraction((-1) ** j * (j + 1), factorial(2 * j + 5)),
               lambda j: Fraction((-1) ** j, factorial(2 * j + 2)),
               lambda j: Fraction((-1) ** j, 2 ** (2 * j + 1) * factorial(2 * j + 1)),
               lambda j: Fraction((-1) ** j, 4 ** j * factorial(2 * j)),
               lambda j: Fraction((-1) ** (j + 1) * 2 * (j + 1), factorial(2 * j + 3)),
               lambda j: -c(j - 1) if j else Fraction(1),
               lambda j: Fraction((-1) ** j, factorial(2 * j + 1))]
    return np.array([[float(column(j)) for column in columns] for j in range(8)])


_SE3_SERIES = _se3_series()
_SERIES_POWERS = np.arange(8.0)
# Below this angle the coefficients come from their series, whose eight terms
# are exact to rounding there; above it the closed forms lose at most about
# 360 eps / theta^4 to cancellation.
_SE3_SERIES_ANGLE = 0.5
# the columns of _se3_coeffs
_C, _A, _G, _A3, _B, _SINC_HALF, _COS_HALF, _H, _K, _SINC = range(10)


def _se3_coeffs(theta: np.ndarray) -> np.ndarray:
    """(..., 10) coefficients of se3_jr_inv, V, V^-1 and the quaternion of
    Exp at rotation angle theta, in the order of the column names above:
    c = (1 - (theta/2) cot(theta/2)) / theta^2, a = (theta - sin) / theta^3,
    g = (2 - 2 cos - theta sin) / theta^4,
    a3 = (2 theta - 3 sin + theta cos) / (2 theta^5), b = (1 - cos) / theta^2,
    sin(theta/2) / theta, cos(theta/2), h = (theta cos - sin) / theta^3,
    k = (theta/2) cot(theta/2) and sin / theta."""
    out = ((theta * theta)[..., None] ** _SERIES_POWERS) @ _SE3_SERIES
    big = theta >= _SE3_SERIES_ANGLE
    if big.any():
        t = theta[big]
        sh, ch = np.sin(0.5 * t), np.cos(0.5 * t)
        sin, cos = 2.0 * sh * ch, 1.0 - 2.0 * sh * sh
        t2 = t * t
        out[big] = np.stack([(1.0 - 0.5 * t * ch / sh) / t2, (t - sin) / (t2 * t),
                             2.0 * sh * (2.0 * sh - t * ch) / (t2 * t2),
                             (2.0 * t - 3.0 * sin + t * cos) / (2.0 * t2 * t2 * t),
                             2.0 * sh * sh / t2, sh / t, ch, (t * cos - sin) / (t2 * t),
                             0.5 * t * ch / sh, sin / t], axis=-1)
    return out


def se3_jr_inv(xi: np.ndarray) -> np.ndarray:
    """Inverse right Jacobian: Log(Exp(xi) Exp(d)) ~= xi + jr_inv(xi) d.

    Closed form (Barfoot & Furgale, "Associating Uncertainty With
    Three-Dimensional Poses", T-RO 2014, eqs. 100-102, for the right Jacobian
    J_r(xi) = J_l(-xi)): in rotation-first order J_r = [[A, 0], [Q, A]], so
    jr_inv = [[A^-1, 0], [-A^-1 Q A^-1, A^-1]] with W = skew(omega),
    R = skew(rho), A^-1 = I + W / 2 + c W^2 and
    Q = -R / 2 + a (WR + RW - WRW) - a2 (WWR + RWW - 3 WRW) + a3 (WRWW + WWRW),
    a2 = (theta^2 + 2 cos - 2) / (2 theta^4), the rest as in _se3_coeffs.
    With d = omega . rho, skew(u) skew(v) = v u^T - (u . v) I and
    omega^T W = 0, the products reduce to WRW = -d W, WRWW = WWRW = -d W^2
    and WWR + RWW = (omega x rho) omega^T - omega (omega x rho)^T - 2 d W,
    whose antisymmetric outer part is skew(omega x (omega x rho)). So, with
    g = a - 2 a2, b = 1/2 - a2 theta^2, h = 2 (a3 theta^2 - a) and
    k = 1 - c theta^2, Q = skew(s) + omega p^T + p omega^T + h d I, where
    s = g d omega - b rho and p = a rho - a3 d omega, and
    A^-1 = skew(omega / 2) + c omega omega^T + k I: outer products of
    vectors, with no product of skew matrices.
    """
    xi = np.asarray(xi, dtype=float)
    omega, rho = xi[..., :3], xi[..., 3:]
    coeffs = _se3_coeffs(_angle(omega))
    c, a, g, a3, b, h, k = (coeffs[..., i, None] for i in (_C, _A, _G, _A3, _B, _H, _K))
    d = _dot(omega, rho)
    s = (g * d) * omega - b * rho
    p = a * rho - (a3 * d) * omega
    # A^-1 and Q side by side: skew(omega / 2) and skew(s), c omega omega^T
    # and omega p^T, k I and h d I
    vectors = np.concatenate([0.5 * omega, s, c * omega, p], axis=-1)
    vectors = vectors.reshape(xi.shape[:-1] + (4, 3))
    outer = omega[..., None, :, None] * vectors[..., 2:, None, :]
    pair = (skew(vectors[..., :2, :]) + outer
            + np.concatenate([k, h * d], axis=-1)[..., None, None] * np.eye(3))
    a_inv = pair[..., 0, :, :]
    q = pair[..., 1, :, :] + np.swapaxes(outer[..., 1, :, :], -1, -2)
    out = np.zeros(xi.shape[:-1] + (6, 6))
    out[..., :3, :3] = a_inv
    out[..., 3:, 3:] = a_inv
    out[..., 3:, :3] = -a_inv @ q @ a_inv
    return out


# ---------------------------------------------------------------------------
# Pose3
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pose3:
    """Rigid transform: rotation as unit quaternion (w,x,y,z), translation in meters."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        q = np.array(self.rotation, dtype=float).reshape(4)
        t = np.array(self.translation, dtype=float).reshape(3)
        values = q.tolist()
        norm = math.sqrt(sum(v * v for v in values))  # as quat_normalize sums
        if not (0.0 < norm < math.inf and all(map(math.isfinite, values + t.tolist()))):
            raise ValueError("non-finite pose components")
        q /= norm
        q.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", q)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "Pose3":
        return Pose3(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    @staticmethod
    def from_tangent(xi: np.ndarray) -> "Pose3":
        q, t = se3_exp(np.asarray(xi, dtype=float).reshape(6))
        return Pose3(q, t)

    @staticmethod
    def _trusted(q: np.ndarray, t: np.ndarray) -> "Pose3":
        """Skip validation/normalization; q must already be unit (hot paths only)."""
        pose = object.__new__(Pose3)
        object.__setattr__(pose, "rotation", q)
        object.__setattr__(pose, "translation", t)
        return pose

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.rotation)

    def apply(self, point: np.ndarray) -> np.ndarray:
        """Transform point(s) from the local frame into the parent frame."""
        return quat_rotate(self.rotation, point) + self.translation

    def matrix(self) -> np.ndarray:
        out = np.eye(4)
        out[:3, :3] = self.rotation_matrix()
        out[:3, 3] = self.translation
        return out


# compose and inverse run once per keyframe on single poses, where a numpy
# call costs more than its arithmetic: they compute on Python floats in the
# operation order of quat_mul and quat_rotate, so they give the same bits.

def _scalar_quat_mul(a, b) -> list:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return [aw * bw - ((ax * bx + ay * by) + az * bz),
            (aw * bx + ax * bw) + (ay * bz - az * by),
            (aw * by + ay * bw) + (az * bx - ax * bz),
            (aw * bz + az * bw) + (ax * by - ay * bx)]


def _scalar_quat_rotate(q, v) -> list:
    w, x, y, z = q
    vx, vy, vz = v
    tx, ty, tz = 2.0 * (y * vz - z * vy), 2.0 * (z * vx - x * vz), 2.0 * (x * vy - y * vx)
    return [(vx + w * tx) + (y * tz - z * ty),
            (vy + w * ty) + (z * tx - x * tz),
            (vz + w * tz) + (x * ty - y * tx)]


def compose(a: Pose3, b: Pose3) -> Pose3:
    qa = a.rotation.tolist()
    rotated = _scalar_quat_rotate(qa, b.translation.tolist())
    return Pose3(_scalar_quat_mul(qa, b.rotation.tolist()),
                 [r + t for r, t in zip(rotated, a.translation.tolist())])


def inverse(p: Pose3) -> Pose3:
    w, x, y, z = p.rotation.tolist()
    qinv = [w, -x, -y, -z]
    return Pose3(qinv, [-v for v in _scalar_quat_rotate(qinv, p.translation.tolist())])


def measurement_model_h(pose: Pose3, landmark: np.ndarray) -> np.ndarray:
    """Predicted landmark position in the sensor frame: inverse(pose) applied to it."""
    lm = np.asarray(landmark, dtype=float)
    return quat_rotate(quat_conj(pose.rotation), lm - pose.translation)


def retract(pose: Pose3, delta: np.ndarray) -> Pose3:
    return compose(pose, Pose3.from_tangent(delta))


def local(a: Pose3, b: Pose3) -> np.ndarray:
    """Tangent taking a to b: local(a, retract(a, d)) = d."""
    rel = compose(inverse(a), b)
    return se3_log(rel.rotation_matrix(), rel.translation)


# ---------------------------------------------------------------------------
# trajectory text format: one line per pose, `t x y z qx qy qz qw`
# ---------------------------------------------------------------------------

def save_trajectory(path, trajectory: list[tuple[float, Pose3]]) -> None:
    with open(path, "w") as f:
        for t, pose in trajectory:
            w, x, y, z = pose.rotation
            tx, ty, tz = pose.translation
            f.write(f"{t:.6f} {tx:.9f} {ty:.9f} {tz:.9f} {x:.9f} {y:.9f} {z:.9f} {w:.9f}\n")


def load_trajectory(path) -> list[tuple[float, Pose3]]:
    from .errors import DataFormatError

    out = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 8:
                raise DataFormatError(f"{path}:{lineno}: expected 8 fields, got {len(fields)}")
            try:
                values = [float(v) for v in fields]
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
            t, tx, ty, tz, x, y, z, w = values
            if not np.isfinite(values).all():
                raise DataFormatError(f"{path}:{lineno}: non-finite value")
            if w == x == y == z == 0.0:
                raise DataFormatError(f"{path}:{lineno}: zero quaternion")
            out.append((t, Pose3(np.array([w, x, y, z]), np.array([tx, ty, tz]))))
    return out
