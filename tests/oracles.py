"""Independent reference implementations used only to check the real ones."""

import math
import sys
from collections import Counter, deque
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from objectslam import factors as fx
from objectslam.errors import NumericalError
from objectslam.geometry import Pose3, measurement_model_h, se3_jr_inv, skew


@dataclass
class Values:
    """Estimates by key, as the per-factor reference below reads them."""

    poses: Mapping
    landmarks: Mapping


# -- per-factor reference for the batched assembly in graph._BatchedFactors:
# the same kernels, applied to one factor at a time ------------------------

def _between_estimate(f, values):
    """inv(x_i) * x_j of a between factor's two pose estimates, (R_ij, t_ij)."""
    pi, pj = values.poses[f.key_i], values.poses[f.key_j]
    return fx.relative_pose(pi.rotation, pi.translation, pj.rotation, pj.translation)


def factor_residual(f, values, landmark_key=None):
    """Unwhitened residual of one prior, between or observation factor (of a
    mixture's component on ``landmark_key``): the reference for that
    factor's residual rows in the batched pass."""
    if isinstance(f, fx.PriorFactor):
        pose = values.poses[f.pose_key]
        return fx.pose_residuals(f.mean.rotation_matrix(), f.mean.translation,
                                 pose.rotation_matrix(), pose.translation)
    if isinstance(f, fx.BetweenFactor):
        return fx.pose_residuals(f.relative.rotation_matrix(), f.relative.translation,
                                 *_between_estimate(f, values))
    pose = values.poses[f.pose_key]
    lm = values.landmarks[f.landmark_key if landmark_key is None else landmark_key]
    return fx.observation_residuals(pose.rotation, pose.translation, lm, f.point)[0]


def mixture_costs(f, values) -> np.ndarray:
    """Whitened cost minus log weight of each component of a max-mixture
    observation; its error is their min, its active component their argmin.
    The reference for the batched pass's choice of component."""
    costs = np.empty(len(f.landmark_keys))
    for idx, key in enumerate(f.landmark_keys):
        rw = f.sqrt_info @ factor_residual(f, values, key)
        costs[idx] = 0.5 * float(rw @ rw) + f.neg_log_weights[idx]
    return costs


def factor_error(f, values) -> float:
    """One factor's error: 0.5 |W r|^2, times the weight of a weighted
    observation; the min over components of a mixture. The reference for
    that factor's share of the batched error."""
    if isinstance(f, fx.MixtureObservationFactor):
        return float(mixture_costs(f, values).min())
    r = f.sqrt_info @ factor_residual(f, values)
    error = 0.5 * float(r @ r)
    return f.weight * error if isinstance(f, fx.WeightedObservationFactor) else error


def factor_linearize(f, values):
    """One factor's whitened residual and whitened Jacobians by variable,
    {("x" | "l", key): J}; a mixture's of its active component (whose -log w
    offset is constant under the perturbation), a weighted observation's
    scaled by sqrt(weight). The reference for that factor's rows of the
    batched normal equations, and what the finite-difference checks of the
    Jacobian kernels differentiate."""
    w = f.sqrt_info
    if isinstance(f, fx.PriorFactor):
        r = factor_residual(f, values)
        return w @ r, {("x", f.pose_key): w @ se3_jr_inv(r)}
    if isinstance(f, fx.BetweenFactor):
        rot_ij, t_ij = _between_estimate(f, values)
        r = fx.pose_residuals(f.relative.rotation_matrix(), f.relative.translation, rot_ij, t_ij)
        j_i, j_j = fx.between_jacobians(r, rot_ij, t_ij)
        return w @ r, {("x", f.key_i): w @ j_i, ("x", f.key_j): w @ j_j}
    if isinstance(f, fx.MixtureObservationFactor):
        key = f.landmark_keys[int(np.argmin(mixture_costs(f, values)))]
    else:
        key = f.landmark_key
    pose = values.poses[f.pose_key]
    r, h, rot = fx.observation_residuals(pose.rotation, pose.translation, values.landmarks[key],
                                         f.point)
    j_pose, j_lm = fx.observation_jacobians(rot, h)
    r, jacobians = w @ r, {("x", f.pose_key): w @ j_pose, ("l", key): w @ j_lm}
    if isinstance(f, fx.WeightedObservationFactor):
        s = np.sqrt(f.weight)
        return s * r, {k: s * j for k, j in jacobians.items()}
    return r, jacobians


def graph_values(graph) -> Values:
    """A FactorGraph's current estimates."""
    return Values(graph.poses, graph.landmarks)


def graph_error(graph) -> float:
    """A FactorGraph's total error at its estimates, from one batched residual
    pass (appending the factors queued since the last one)."""
    batch = graph._batched()
    return batch.error_only(batch.state()).error


def graph_summary(graph) -> dict:
    """Variable counts, factor counts by type and the total error."""
    return {
        "num_poses": len(graph.poses),
        "num_landmarks": len(graph.landmarks),
        "factor_counts": Counter(type(f).__name__ for f in graph.factors),
        "total_error": graph_error(graph),
    }


def unanchored_groups(graph) -> int:
    """Reference for FactorGraph's gauge check: the number of groups of
    variables linked through shared factors (a mixture links all of its
    landmarks) that hold no prior, by breadth-first search."""
    neighbours = {("x", k): set() for k in graph.poses}
    neighbours.update({("l", k): set() for k in graph.landmarks})
    anchored = set()
    for f in graph.factors:
        keys = f.keys()
        for key in keys:
            neighbours[key].update(keys)
        if isinstance(f, fx.PriorFactor):
            anchored.update(keys)
    seen, count = set(), 0
    for start in neighbours:
        if start in seen:
            continue
        seen.add(start)
        queue, anchor = deque([start]), False
        while queue:
            key = queue.popleft()
            anchor |= key in anchored
            for other in neighbours[key] - seen:
                seen.add(other)
                queue.append(other)
        count += not anchor
    return count


def scatter_index_reference(batch, block, cols):
    """Flat-buffer index (n, kept) of each kept J^T J entry and compact-gradient
    position (n, d) of each J^T r entry of factors with system columns
    ``cols`` (n, d; landmark columns counted from the first landmark one) in
    ``batch``'s layout, built part by part with masks over ``block``'s
    entries. The compact gradient holds the 3K landmark entries, then the
    pose entries."""
    records, stride = batch._records_at, batch._stride
    a, b = cols[:, block.rows], cols[:, block.cols]
    index = np.empty(a.shape, dtype=np.intp)
    m = block.band
    lo, hi = np.minimum(a[:, m], b[:, m]), np.maximum(a[:, m], b[:, m])
    index[:, m] = records + lo * stride + (hi - lo)
    m = block.border
    index[:, m] = records + a[:, m] * stride + batch.band_rows + b[:, m]
    m = block.landmark
    index[:, m] = a[:, m] * (3 * batch.lm_capacity) + b[:, m]
    grad = np.where(block.lm_col, cols, 3 * batch.lm_capacity + cols)
    return index, grad


def quat_matrix_entries(q):
    """Rotation matrices of unit quaternions, entry by entry: the textbook
    formulas, e.g. R_00 = 1 - 2 (y^2 + z^2) and R_01 = 2 (x y - w z)."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    rows = [[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def measurement_jacobians(pose: Pose3, landmark: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives of measurement_model_h w.r.t. a right pose perturbation and the point,
    for one pair: (H_pose 3x6 in (r, t) tangent order, H_landmark 3x3)."""
    h0 = measurement_model_h(pose, landmark)
    h_pose = np.hstack([skew(h0), -np.eye(3)])
    h_lm = pose.rotation_matrix().T
    return h_pose, h_lm


def flood_fill_components(mask, connectivity):
    """Recursive flood fill; partitions true cells into frozensets of (r, c)."""
    sys.setrecursionlimit(100_000)
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    if connectivity == 4:
        offsets = ((-1, 0), (1, 0), (0, -1), (0, 1))
    else:
        offsets = ((-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1))
    seen = set()
    comps = []

    def grow(r, c, acc):
        acc.add((r, c))
        seen.add((r, c))
        for dr, dc in offsets:
            nr, nc = r + dr, c + dc
            if 0 <= nr < h and 0 <= nc < w and mask[nr, nc] and (nr, nc) not in seen:
                grow(nr, nc, acc)

    for i in range(h):
        for j in range(w):
            if mask[i, j] and (i, j) not in seen:
                acc = set()
                grow(i, j, acc)
                comps.append(frozenset(acc))
    return comps


def chi2_cdf(x, dof):
    """Regularized lower incomplete gamma via its power series (no scipy)."""
    if x <= 0:
        return 0.0
    s = dof / 2.0
    z = x / 2.0
    # P(s, z) = z^s e^-z / Gamma(s) * sum_n z^n / (s (s+1) ... (s+n))
    term = 1.0 / s
    total = term
    n = 0
    while True:
        n += 1
        term *= z / (s + n)
        total += term
        if term < total * 1e-16 or n > 10_000:
            break
    log_p = s * math.log(z) - z - math.lgamma(s) + math.log(total)
    return min(1.0, math.exp(log_p))


def chi2_quantile(dof, beta, tol=1e-10):
    """Bisection on the series CDF."""
    lo, hi = 0.0, 1.0
    while chi2_cdf(hi, dof) < beta:
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if chi2_cdf(mid, dof) < beta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def nearest_prototype_labels(points, prototypes):
    """Brute-force nearest assignment, one loop at a time."""
    labels = []
    for p in points:
        best, best_d = -1, float("inf")
        for i, c in enumerate(prototypes):
            d = float(np.sum((p - c) ** 2))
            if d < best_d:
                best, best_d = i, d
        labels.append(best)
    return np.array(labels)


def se3_ad(xi):
    """Lie bracket matrix ad(xi) of a rotation-first tangent: [[w^, 0], [rho^, w^]]."""
    xi = np.asarray(xi, dtype=float)

    def hat(v):
        x, y, z = v
        return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])

    out = np.zeros((6, 6))
    out[:3, :3] = out[3:, 3:] = hat(xi[:3])
    out[3:, :3] = hat(xi[3:])
    return out


def _bernoulli(n):
    """B_0..B_n (B_1 = -1/2) from the recurrence sum_{j<=m} C(m+1, j) B_j = 0."""
    from fractions import Fraction

    bern = [Fraction(1)]
    for m in range(1, n + 1):
        bern.append(-sum(math.comb(m + 1, j) * bern[j] for j in range(m)) / (m + 1))
    return bern


def se3_jr_inv_series(xi, terms=20):
    """Inverse right Jacobian of SE(3) as its Bernoulli series,
    sum_n B_n / n! (-ad xi)^n = I + ad / 2 + sum_k B_2k / (2k)! ad^2k;
    20 even terms reach machine precision up to a rotation of about pi."""
    bern = _bernoulli(2 * terms)
    ad = se3_ad(xi)
    ad2 = ad @ ad
    out = np.eye(6) + 0.5 * ad
    power = ad2
    for k in range(1, terms + 1):
        out += float(bern[2 * k] / math.factorial(2 * k)) * power
        power = power @ ad2
    return out


def se3_v_series(omega, inverse=False, terms=40):
    """The matrix V of the SE(3) exponential, t = V rho, as its Taylor series
    sum_n W^n / (n + 1)! in W = skew(omega), or V^-1 = W / (e^W - I) as its
    Bernoulli series sum_n B_n / n! W^n; ``terms`` terms of either reach
    machine precision well beyond the small rotations the tests use."""
    w = skew(np.asarray(omega, dtype=float))
    if inverse:
        coeffs = [float(b / math.factorial(n)) for n, b in enumerate(_bernoulli(terms))]
    else:
        coeffs = [1.0 / math.factorial(n + 1) for n in range(terms + 1)]
    out, power = np.zeros((3, 3)), np.eye(3)
    for c in coeffs:
        out += c * power
        power = power @ w
    return out


def kmeans_reference(features, k, max_iters=50, seed=0):
    """Lloyd's algorithm with per-cluster masked means and a sequential
    empty-cluster reseed, validating k against the distinct rows up front.

    Returns (labels (H, W), centroids, wcss history, number of reseeds).
    """
    h, w, dim = features.shape
    points = features.reshape(-1, dim)
    n = points.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"k={k} out of range for {n} patches")
    distinct = np.unique(points, axis=0).shape[0]
    if k > distinct:
        raise ValueError(f"k={k} exceeds {distinct} distinct feature vectors")

    rng = np.random.default_rng(seed)
    centroids = np.empty((k, dim))
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[i] = points[rng.integers(n)]
        else:
            centroids[i] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centroids[i]) ** 2, axis=1))

    def assign(cents):
        d2 = (np.sum(points * points, axis=1)[:, None] - 2.0 * points @ cents.T
              + np.sum(cents * cents, axis=1)[None, :])
        return np.argmin(d2, axis=1)

    def wcss(cents, labels):
        return float(np.sum((points - cents[labels]) ** 2))

    reseeds = 0
    labels = assign(centroids)
    history = [wcss(centroids, labels)]
    for _ in range(max_iters):
        out = centroids.copy()
        for c in range(k):
            mask = labels == c
            if mask.any():
                out[c] = points[mask].mean(axis=0)
            else:
                reseeds += 1
                d2 = np.sum((points - out[labels]) ** 2, axis=1)
                out[c] = points[int(np.argmax(d2))]
        centroids = out
        new_labels = assign(centroids)
        history.append(wcss(centroids, new_labels))
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    return labels.reshape(h, w), centroids, history, reseeds


def vote_saliency_reference(labels, k, attention, vote_threshold, attended_mass_fraction=0.5):
    """Attention voting one head at a time: a stable descending argsort of the
    head's attention, its running sum and a searchsorted cut, as
    ``segmentation.vote_saliency`` documents it."""
    labels = np.asarray(labels).ravel()
    num_heads = attention.shape[0]
    cluster_sizes = np.bincount(labels, minlength=k)
    votes = np.zeros(k, dtype=int)
    for h in range(num_heads):
        w = attention[h].ravel()
        total = w.sum()
        if total <= 0:
            continue
        order = np.argsort(-w, kind="stable")
        csum = np.cumsum(w[order])
        cut = int(np.searchsorted(csum, attended_mass_fraction * total))
        cutoff_value = w[order[min(cut, len(order) - 1)]]
        attended = (w >= cutoff_value) & (w > 0)
        attended_per_cluster = np.bincount(labels[attended], minlength=k)
        votes += attended_per_cluster > 0.5 * cluster_sizes
    return {c for c in range(k) if cluster_sizes[c] > 0 and votes[c] / num_heads > vote_threshold}


def innovation_covariance(h_pose, h_landmark, joint_cov, gamma):
    """C = [H_x | H_l] Sigma [H_x | H_l]^T + Gamma over the joint 9x9 marginal,
    one pair at a time, after checking both covariances."""
    joint_cov = np.asarray(joint_cov, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    _require_symmetric_psd(joint_cov, "joint covariance", strict=False)
    _require_symmetric_psd(gamma, "measurement covariance", strict=True)
    h = np.hstack([np.asarray(h_pose, dtype=float), np.asarray(h_landmark, dtype=float)])
    c = h @ joint_cov @ h.T + gamma
    return 0.5 * (c + c.T)


def _require_symmetric_psd(m, name, strict):
    if m.shape[0] != m.shape[1] or not np.allclose(m, m.T, atol=1e-8):
        raise NumericalError(f"{name} must be symmetric")
    eigmin = float(np.linalg.eigvalsh(m)[0])
    if eigmin < -1e-10 or (strict and eigmin <= 0.0):
        raise NumericalError(f"{name} must be positive {'definite' if strict else 'semidefinite'}")


def mahalanobis_d2(innovation, cov):
    """r^T C^-1 r via Cholesky; raises NumericalError on a singular covariance."""
    innovation = np.asarray(innovation, dtype=float)
    cov = np.asarray(cov, dtype=float)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular innovation covariance") from exc
    y = np.linalg.solve(chol, innovation)
    return float(y @ y)


def log_marginal_likelihood(d_squared, cov):
    """Log of the Gaussian measurement likelihood at Mahalanobis distance
    d_squared, normalizer included."""
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise NumericalError("innovation covariance has non-positive determinant")
    return -0.5 * d_squared - 0.5 * (cov.shape[0] * math.log(2.0 * math.pi) + float(logdet))
