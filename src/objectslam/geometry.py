"""SE(3) pose algebra shared by the whole toolkit.

Conventions, fixed repo-wide:
  * unit quaternions stored as (w, x, y, z)
  * tangent vectors are (rx, ry, rz, tx, ty, tz) -- rotation first
  * right perturbations: retract(p, d) = p * exp(d)

Points and tangents are plain float ndarrays of shape (3,) and (6,).
Most helpers broadcast over leading axes so the optimizer can run them on
stacked arrays without a Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SMALL_ANGLE = 1e-8


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix, batched over leading axes."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out[..., 0, 1] = -z
    out[..., 0, 2] = y
    out[..., 1, 0] = z
    out[..., 1, 2] = -x
    out[..., 2, 0] = -y
    out[..., 2, 1] = x
    return out


# ---------------------------------------------------------------------------
# quaternion helpers (broadcast over leading axes, layout (w, x, y, z))
# ---------------------------------------------------------------------------

def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.cross carries heavy axis-normalization overhead on small arrays
    out = np.empty(np.broadcast(a, b).shape)
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, av = a[..., :1], a[..., 1:]
    bw, bv = b[..., :1], b[..., 1:]
    w = aw * bw - np.sum(av * bv, axis=-1, keepdims=True)
    v = aw * bv + bw * av + _cross(av, bv)
    return np.concatenate([w, v], axis=-1)


def quat_conj(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    out = q.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector(s) v by quaternion(s) q."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    qv = q[..., 1:]
    w = q[..., :1]
    t = 2.0 * _cross(qv, v)
    return v + w * t + _cross(qv, t)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(q.shape[:-1] + (3, 3))
    out[..., 0, 0] = 1 - 2 * (y * y + z * z)
    out[..., 0, 1] = 2 * (x * y - w * z)
    out[..., 0, 2] = 2 * (x * z + w * y)
    out[..., 1, 0] = 2 * (x * y + w * z)
    out[..., 1, 1] = 1 - 2 * (x * x + z * z)
    out[..., 1, 2] = 2 * (y * z - w * x)
    out[..., 2, 0] = 2 * (x * z - w * y)
    out[..., 2, 1] = 2 * (y * z + w * x)
    out[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return out


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


def so3_exp_quat(omega: np.ndarray) -> np.ndarray:
    """Rotation-vector exponential, returned as a unit quaternion."""
    omega = np.asarray(omega, dtype=float)
    theta = np.linalg.norm(omega, axis=-1, keepdims=True)
    half = 0.5 * theta
    # sin(theta/2)/theta with series fallback near zero
    small = theta < _SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    s = np.where(small, 0.5 - theta * theta / 48.0, np.sin(half) / safe)
    return np.concatenate([np.cos(half), s * omega], axis=-1)


def so3_log_quat(q: np.ndarray) -> np.ndarray:
    """Rotation vector of a unit quaternion (angle in [0, pi])."""
    q = np.asarray(q, dtype=float)
    q = np.where(q[..., :1] < 0.0, -q, q)  # canonical hemisphere
    w = q[..., :1]
    v = q[..., 1:]
    nv = np.linalg.norm(v, axis=-1, keepdims=True)
    angle = 2.0 * np.arctan2(nv, w)
    small = nv < _SMALL_ANGLE
    safe = np.where(small, 1.0, nv)
    scale = np.where(small, 2.0 / np.maximum(w, _SMALL_ANGLE), angle / safe)
    return scale * v


def _v_matrix(omega: np.ndarray) -> np.ndarray:
    """V = I + a W + b W^2 of se3_exp, W = skew(omega)."""
    omega = np.asarray(omega, dtype=float)
    coeffs = _se3_coeffs(np.linalg.norm(omega, axis=-1))
    s = skew(omega)
    return np.eye(3) + coeffs[..., 4, None, None] * s + coeffs[..., 1, None, None] * (s @ s)


def _v_inv_matrix(omega: np.ndarray) -> np.ndarray:
    """V^-1 = I - W / 2 + c W^2 of se3_log, W = skew(omega)."""
    omega = np.asarray(omega, dtype=float)
    c = _se3_coeffs(np.linalg.norm(omega, axis=-1))[..., 0, None, None]
    s = skew(omega)
    return np.eye(3) - 0.5 * s + c * (s @ s)


def se3_exp(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exponential map: tangent (..., 6) -> (quaternion, translation)."""
    xi = np.asarray(xi, dtype=float)
    omega = xi[..., :3]
    rho = xi[..., 3:]
    q = so3_exp_quat(omega)
    t = np.einsum("...ij,...j->...i", _v_matrix(omega), rho)
    return q, t


def se3_log(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Logarithm map: (quaternion, translation) -> tangent (..., 6)."""
    omega = so3_log_quat(q)
    rho = np.einsum("...ij,...j->...i", _v_inv_matrix(omega), np.asarray(t, dtype=float))
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
    """(8, 5) Taylor coefficients in theta^2 of the five _se3_coeffs."""
    from fractions import Fraction
    from math import factorial

    bernoulli = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
                 Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510)]
    return np.array([[float(abs(bernoulli[j]) / factorial(2 * j + 2)),
                      (-1) ** j / factorial(2 * j + 3),
                      (-1) ** j / factorial(2 * j + 4),
                      (-1) ** j * (j + 1) / factorial(2 * j + 5),
                      (-1) ** j / factorial(2 * j + 2)] for j in range(8)])


_SE3_SERIES = _se3_series()
# Below this angle the coefficients come from their series, whose eight terms
# are exact to rounding there; above it the closed forms lose at most about
# 360 eps / theta^4 to cancellation.
_SE3_SERIES_ANGLE = 0.5


def _se3_coeffs(theta: np.ndarray) -> np.ndarray:
    """(..., 5) coefficients of se3_jr_inv, V and V^-1 at rotation angle theta:
    (1 - (theta/2) cot(theta/2)) / theta^2, (theta - sin) / theta^3,
    (theta^2 + 2 cos - 2) / (2 theta^4), (2 theta - 3 sin + theta cos) / (2 theta^5)
    and (1 - cos) / theta^2."""
    powers = np.empty(theta.shape + (8,))
    powers[..., 0] = 1.0
    powers[..., 1:] = (theta * theta)[..., None]
    out = np.cumprod(powers, axis=-1) @ _SE3_SERIES
    big = theta >= _SE3_SERIES_ANGLE
    if np.any(big):
        t = theta[big]
        sh, ch = np.sin(0.5 * t), np.cos(0.5 * t)
        sin, cos = 2.0 * sh * ch, 1.0 - 2.0 * sh * sh
        t2 = t * t
        out[big] = np.stack([(1.0 - 0.5 * t * ch / sh) / t2, (t - sin) / (t2 * t),
                             (t2 + 2.0 * cos - 2.0) / (2.0 * t2 * t2),
                             (2.0 * t - 3.0 * sin + t * cos) / (2.0 * t2 * t2 * t),
                             2.0 * sh * sh / t2], axis=-1)
    return out


def se3_jr_inv(xi: np.ndarray) -> np.ndarray:
    """Inverse right Jacobian: Log(Exp(xi) Exp(d)) ~= xi + jr_inv(xi) d.

    Closed form (Barfoot & Furgale, "Associating Uncertainty With
    Three-Dimensional Poses", T-RO 2014, eqs. 100-102, for the right Jacobian
    J_r(xi) = J_l(-xi)): in rotation-first order J_r = [[A, 0], [Q, A]], so
    jr_inv = [[A^-1, 0], [-A^-1 Q A^-1, A^-1]] with W = skew(omega),
    R = skew(rho), A^-1 = I + W / 2 + c W^2 and
    Q = -R / 2 + a1 (WR + RW - WRW) - a2 (WWR + RWW - 3 WRW) + a3 (WRWW + WWRW).
    """
    xi = np.asarray(xi, dtype=float)
    c, a1, a2, a3, _ = np.moveaxis(
        _se3_coeffs(np.linalg.norm(xi[..., :3], axis=-1))[..., None, None], -3, 0)
    hats = skew(xi.reshape(xi.shape[:-1] + (2, 3)))
    w, r = hats[..., 0, :, :], hats[..., 1, :, :]
    ww, wr, rw = w @ w, w @ r, r @ w
    wrw = wr @ w
    q = (a1 * (wr + rw - wrw) - 0.5 * r - a2 * (w @ wr + rw @ w - 3.0 * wrw)
         + a3 * (wrw @ w + w @ wrw))
    a_inv = np.eye(3) + 0.5 * w + c * ww
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
        q = quat_normalize(np.asarray(self.rotation, dtype=float).reshape(4))
        t = np.array(self.translation, dtype=float).reshape(3)
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(t))):
            raise ValueError("non-finite pose components")
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


def compose(a: Pose3, b: Pose3) -> Pose3:
    return Pose3(quat_mul(a.rotation, b.rotation), a.apply(b.translation))


def inverse(p: Pose3) -> Pose3:
    qinv = quat_conj(p.rotation)
    return Pose3(qinv, -quat_rotate(qinv, p.translation))


def measurement_model_h(pose: Pose3, landmark: np.ndarray) -> np.ndarray:
    """Predicted landmark position in the sensor frame: inverse(pose) applied to it."""
    lm = np.asarray(landmark, dtype=float)
    return quat_rotate(quat_conj(pose.rotation), lm - pose.translation)


def retract(pose: Pose3, delta: np.ndarray) -> Pose3:
    return compose(pose, Pose3.from_tangent(delta))


def local(a: Pose3, b: Pose3) -> np.ndarray:
    """Tangent taking a to b: local(a, retract(a, d)) = d."""
    rel = compose(inverse(a), b)
    return se3_log(rel.rotation, rel.translation)


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
