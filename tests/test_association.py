import math

import numpy as np
import pytest

from objectslam import association as da
from objectslam.errors import NumericalError
from objectslam.geometry import Pose3, measurement_model_h
from objectslam.segmentation import ObjectDetection
from oracles import (chi2_quantile, innovation_covariance, log_marginal_likelihood,
                     mahalanobis_d2, measurement_jacobians)

from test_geometry import random_pose


def make_detection(point, embedding, sigma=0.05):
    return ObjectDetection(np.asarray(embedding, float), np.asarray(point, float),
                           np.eye(3) * sigma ** 2)


def random_spd(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return a @ a.T * scale + np.eye(n) * 1e-3


def test_cosine_similarity_cases():
    v = np.array([0.3, -1.2, 5.0])
    assert da.cosine_similarity(v, v) == pytest.approx(1.0)
    assert da.cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)
    assert da.cosine_similarity([1, 0], [1, 1]) == pytest.approx(0.70710678, abs=1e-8)
    with pytest.raises(ValueError):
        da.cosine_similarity([0, 0], [1, 0])


def test_cosine_similarity_scale_invariant():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b = rng.normal(size=8), rng.normal(size=8)
        c = rng.uniform(0.01, 100.0)
        assert abs(da.cosine_similarity(c * a, b) - da.cosine_similarity(a, b)) < 1e-12


def test_innovation_covariance_cases():
    h_pose = np.hstack([np.eye(3), np.zeros((3, 3))])
    h_lm = np.zeros((3, 3))
    got = innovation_covariance(h_pose, h_lm, np.zeros((9, 9)), np.eye(3) * 0.4)
    assert np.allclose(got, np.eye(3) * 0.4)

    sigma2, gamma = 0.3, 0.2
    got = innovation_covariance(h_pose, h_lm, np.eye(9) * sigma2, np.eye(3) * gamma)
    assert np.allclose(got, np.eye(3) * (sigma2 + gamma))

    rng = np.random.default_rng(1)
    for _ in range(20):
        joint = random_spd(rng, 9)
        gam = random_spd(rng, 3, 0.1)
        hp = rng.normal(size=(3, 6))
        hl = rng.normal(size=(3, 3))
        c = innovation_covariance(hp, hl, joint, gam)
        assert np.allclose(c, c.T, atol=1e-10)
        assert np.linalg.eigvalsh(c)[0] >= np.linalg.eigvalsh(gam)[0] - 1e-9


def test_innovation_covariance_rejects_bad_input():
    h_pose = np.zeros((3, 6))
    h_lm = np.eye(3)
    bad = np.eye(9)
    bad[0, 1] = 5.0  # asymmetric
    with pytest.raises(NumericalError):
        innovation_covariance(h_pose, h_lm, bad, np.eye(3))
    with pytest.raises(NumericalError):
        innovation_covariance(h_pose, h_lm, np.eye(9), -np.eye(3))


def test_mahalanobis_cases():
    assert mahalanobis_d2(np.zeros(3), np.eye(3)) == 0.0
    assert mahalanobis_d2([1, 2, 3], np.eye(3)) == pytest.approx(14.0)
    assert mahalanobis_d2([1, 0, 0], np.diag([4.0, 1, 1])) == pytest.approx(0.25)
    with pytest.raises(NumericalError):
        mahalanobis_d2([1, 0, 0], np.zeros((3, 3)))


def test_chi_square_quantile_against_series_oracle():
    assert da.chi_square_quantile(3, 0.95) == pytest.approx(chi2_quantile(3, 0.95), abs=1e-6)
    assert da.chi_square_quantile(3, 0.95) == pytest.approx(7.8147, abs=1e-3)
    assert da.chi_square_quantile(1, 0.95) == pytest.approx(1.95996398 ** 2, abs=1e-4)
    # chi2 with 2 dof has CDF 1 - exp(-x/2)
    beta = 1.0 - math.exp(-1.0)
    assert da.chi_square_quantile(2, beta) == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(ValueError):
        da.chi_square_quantile(3, 1.5)


def test_gate_calibration_monte_carlo():
    rng = np.random.default_rng(2)
    c = random_spd(rng, 3, 0.2)
    chol = np.linalg.cholesky(c)
    draws = rng.normal(size=(10_000, 3)) @ chol.T
    threshold = da.chi_square_quantile(3, 0.95)
    rate = np.mean([mahalanobis_d2(x, c) < threshold for x in draws])
    assert abs(rate - 0.95) < 0.01


def snapshot_one_landmark(pose, lm_pos, lm_emb, cov=None):
    lm = da.Landmark(0, lm_pos, lm_emb)
    return da.StateSnapshot(pose, [lm], cov)


def joint_block(snap, i):
    """The 9x9 (pose, landmark i) block of the snapshot's joint covariance."""
    if snap.joint_cov is None:
        return np.zeros((9, 9))
    idx = np.r_[0:6, 6 + 3 * i:9 + 3 * i]
    return snap.joint_cov[np.ix_(idx, idx)]


def test_generate_hypotheses_simple_cases():
    cfg = da.DAConfig()
    pose = Pose3.identity()
    det = make_detection([1.0, 0.0, 2.0], [1.0, 0.0, 0.0])

    assert da.generate_hypotheses(det, da.StateSnapshot(pose, []), cfg) == []
    with pytest.raises(ValueError):  # joint_cov must cover the pose and every landmark
        da.StateSnapshot(pose, [da.Landmark(0, np.zeros(3), [1.0])], np.eye(6))

    snap = snapshot_one_landmark(pose, [1.0, 0.0, 2.0], [1.0, 0.0, 0.0])
    hyps = da.generate_hypotheses(det, snap, cfg)
    assert len(hyps) == 1
    assert hyps[0].d_squared == pytest.approx(0.0)
    assert hyps[0].cosine == pytest.approx(1.0)


@pytest.mark.parametrize("radius", [-5.0, 0.0, math.nan, -math.inf])
def test_daconfig_rejects_bad_gate_radius(radius):
    # the radius is squared, so -5 would gate like 5, and NaN would gate out everything
    with pytest.raises(ValueError):
        da.DAConfig(gate_radius=radius)


def test_generate_hypotheses_gates():
    cfg = da.DAConfig(alpha=0.8, beta=0.95, gate_radius=5.0)
    pose = Pose3.identity()
    det = make_detection([1.0, 0.0, 2.0], [1.0, 0.0, 0.0])

    # wrong class: rejected despite zero innovation
    snap = snapshot_one_landmark(pose, [1.0, 0.0, 2.0], [0.0, 1.0, 0.0])
    assert da.generate_hypotheses(det, snap, cfg) == []
    # geometric_only ignores the class gate
    cfg_geo = da.DAConfig(strategy="geometric_only")
    assert len(da.generate_hypotheses(det, snap, cfg_geo)) == 1

    # out of gate radius
    snap = snapshot_one_landmark(pose, [20.0, 0.0, 2.0], [1.0, 0.0, 0.0])
    assert da.generate_hypotheses(det, snap, cfg) == []

    # chi-square rejection: innovation much larger than covariance allows
    snap = snapshot_one_landmark(pose, [2.0, 0.0, 2.0], [1.0, 0.0, 0.0])
    assert da.generate_hypotheses(det, snap, cfg) == []


def brute_force_hypotheses(det, snap, cfg):
    """Literal re-evaluation of the gating equations over all landmarks."""
    out = []
    for i, lm in enumerate(snap.landmarks):
        pred = measurement_model_h(snap.pose, lm.position)
        r = pred - det.point
        if np.linalg.norm(r) > cfg.gate_radius:
            continue
        cos = da.cosine_similarity(det.embedding, lm.embedding)
        if cfg.strategy != "geometric_only" and not cos > cfg.alpha:
            continue
        hp, hl = measurement_jacobians(snap.pose, lm.position)
        hh = np.hstack([hp, hl])
        c = hh @ joint_block(snap, i) @ hh.T + det.point_covariance
        c = 0.5 * (c + c.T)
        d2 = float(r @ np.linalg.inv(c) @ r)
        if not d2 < chi2_quantile(da.POINT_DOF, cfg.beta):
            continue
        lml = -0.5 * d2 - 0.5 * np.log(np.linalg.det(2 * np.pi * c))
        out.append((lm.id, d2, cos, lml))
    out.sort(key=lambda t: (-t[3], t[0]))
    return out


def random_instance(rng, n_landmarks):
    pose = random_pose(rng, max_angle=1.0, max_trans=1.0)
    lms = []
    dim = 4
    for i in range(n_landmarks):
        lms.append(da.Landmark(i, rng.uniform(-3, 3, size=3), rng.normal(size=dim)))
    joint = random_spd(rng, 6 + 3 * n_landmarks, 0.01)  # landmark-landmark blocks non-zero
    # point the detection near a random landmark's prediction half the time
    if rng.random() < 0.5 and lms:
        target = lms[rng.integers(len(lms))]
        point = measurement_model_h(pose, target.position) + rng.normal(scale=0.3, size=3)
    else:
        point = rng.uniform(-3, 3, size=3)
    det = ObjectDetection(rng.normal(size=dim), point, random_spd(rng, 3, 0.05))
    return det, da.StateSnapshot(pose, lms, joint)


def test_hypotheses_match_enumeration_oracle():
    rng = np.random.default_rng(3)
    cfg = da.DAConfig(alpha=0.0, gate_radius=8.0)
    checked = 0
    for _ in range(300):
        det, snap = random_instance(rng, rng.integers(1, 6))
        got = da.generate_hypotheses(det, snap, cfg)
        want = brute_force_hypotheses(det, snap, cfg)
        assert [h.landmark_id for h in got] == [w[0] for w in want]
        for h, w in zip(got, want):
            assert h.d_squared == pytest.approx(w[1], rel=1e-9)
            assert h.log_marginal == pytest.approx(w[3], rel=1e-9)
        checked += len(got)
    assert checked > 100  # the gates must actually pass sometimes


def test_gating_soundness():
    rng = np.random.default_rng(4)
    cfg = da.DAConfig(alpha=0.0, gate_radius=8.0)
    threshold = chi2_quantile(da.POINT_DOF, cfg.beta)
    for _ in range(100):
        det, snap = random_instance(rng, 4)
        for h in da.generate_hypotheses(det, snap, cfg):
            assert h.cosine > cfg.alpha
            assert h.d_squared < threshold + 1e-9


def test_indefinite_innovation_covariance_drops_only_its_pairs():
    rng = np.random.default_rng(11)
    cfg = da.DAConfig(alpha=0.0, gate_radius=8.0)
    pose = random_pose(rng, max_angle=1.0, max_trans=1.0)
    landmarks = [da.Landmark(i, rng.uniform(-3, 3, size=3), rng.normal(size=4)) for i in range(6)]
    joint = random_spd(rng, 6 + 3 * len(landmarks), 0.01)
    dets = [ObjectDetection(rng.normal(size=4),
                            measurement_model_h(pose, lm.position) + rng.normal(scale=0.3, size=3),
                            random_spd(rng, 3, 0.05)) for lm in landmarks]
    clean = da._evaluate_frame(dets, da.StateSnapshot(pose, landmarks, joint), cfg)
    broken = 2
    # a landmark block of -100 I swamps the rest of H Sigma H^T, so C is
    # negative definite for every detection paired with the broken landmark
    faulty_joint = joint.copy()
    faulty_joint[6 + 3 * broken:9 + 3 * broken, 6 + 3 * broken:9 + 3 * broken] = -100 * np.eye(3)
    faulty_snap = da.StateSnapshot(pose, landmarks, faulty_joint)
    faulty = da._evaluate_frame(dets, faulty_snap, cfg)
    dropped = 0
    for want, got in zip(clean, faulty, strict=True):
        kept = [pair for pair in want if pair[0] != broken]
        dropped += len(want) - len(kept)
        assert len(got) == len(kept)
        for (lm0, cos0, d0, c0, logdet0), (lm1, cos1, d1, c1, logdet1) in zip(kept, got):
            assert (lm0, cos0, d0, logdet0) == (lm1, cos1, d1, logdet1)
            assert np.array_equal(c0, c1)
    assert dropped > 0 and sum(map(len, faulty)) > 0
    assert len(da.associate_frame(dets, faulty_snap, cfg)) == len(dets)
    # a frame whose every pair is broken gates everything out
    alone = da.StateSnapshot(pose, [landmarks[broken]], joint_block(faulty_snap, broken))
    assert da.generate_hypotheses(dets[broken], alone, da.DAConfig(strategy="geometric_only")) == []


def test_decide_cases():
    cfg_ml = da.DAConfig(strategy="ml")
    cfg_em = da.DAConfig(strategy="em")
    cfg_mm = da.DAConfig(strategy="mm")

    assert da.decide([], cfg_ml).is_new
    assert da.decide([], cfg_em).is_new
    assert da.decide([], cfg_mm).is_new

    c = np.eye(3) * 0.01
    h0 = da.Hypothesis(7, 0.0, 0.9, log_marginal_likelihood(0.0, c), c)
    assert da.decide([h0], cfg_ml).pairs == ((7, 1.0),)
    dec = da.decide([h0], cfg_em)
    assert dec.kind == "weighted" and dec.pairs == ((7, 1.0),)

    # two hypotheses, equal determinants, D^2 = {0, 2}: softmax of -D^2/2
    h1 = da.Hypothesis(8, 2.0, 0.9, log_marginal_likelihood(2.0, c), c)
    dec = da.decide([h0, h1], cfg_em)
    w = dict(dec.pairs)
    assert w[7] == pytest.approx(math.e ** 0 / (math.e ** 0 + math.e ** -1), abs=1e-4)
    assert w[7] == pytest.approx(0.7311, abs=1e-4)
    assert w[8] == pytest.approx(0.2689, abs=1e-4)
    assert sum(w.values()) == pytest.approx(1.0, abs=1e-9)

    dec = da.decide([h0, h1], cfg_mm)
    assert dec.kind == "mixture"
    assert sum(dict(dec.pairs).values()) == pytest.approx(1.0, abs=1e-9)


def test_decide_weights_decrease_with_d2():
    cfg = da.DAConfig(strategy="em")
    c = np.eye(3) * 0.02
    hyps = [da.Hypothesis(i, d2, 0.9, log_marginal_likelihood(d2, c), c)
            for i, d2 in enumerate([0.1, 0.7, 2.5, 6.0])]
    weights = [w for _, w in da.decide(hyps, cfg).pairs]
    assert all(a > b for a, b in zip(weights, weights[1:]))
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)


def test_decide_new_only():
    cfg = da.DAConfig(strategy="new_only")
    c = np.eye(3) * 0.01
    h0 = da.Hypothesis(7, 0.0, 0.9, log_marginal_likelihood(0.0, c), c)
    assert da.decide([h0], cfg).is_new


def test_associate_frame_exclusivity():
    cfg = da.DAConfig(strategy="ml")
    pose = Pose3.identity()
    emb = np.array([1.0, 0.0])
    lm = da.Landmark(0, [1.0, 0.0, 2.0], emb)
    snap = da.StateSnapshot(pose, [lm], np.zeros((9, 9)))
    d_near = make_detection([1.0, 0.0, 2.0], emb)
    d_far = make_detection([1.05, 0.0, 2.0], emb)
    decisions = da.associate_frame([d_far, d_near], snap, cfg)
    # the closer detection wins the landmark, the other becomes new
    assert decisions[1].pairs == ((0, 1.0),)
    assert decisions[0].is_new


@pytest.mark.parametrize("strategy", ["ml", "mm", "em", "new_only"])
def test_associate_frame_marks_new_detections_inside_the_loose_gate(strategy):
    # zero marginals and sigma 0.05: D^2 = |innovation|^2 / 0.0025
    cfg = da.DAConfig(strategy=strategy)
    emb = np.array([1.0, 0.0])
    lm = da.Landmark(0, [1.0, 0.0, 2.0], emb)
    snap = da.StateSnapshot(Pose3.identity(), [lm])
    tight = chi2_quantile(3, cfg.beta)
    loose = chi2_quantile(3, cfg.new_landmark_beta)
    radius = [0.05 * np.sqrt(d2) for d2 in (0.25 * tight, 0.5 * (tight + loose), 2 * loose)]
    dets = [make_detection([1.0 + r, 0.0, 2.0], emb) for r in radius]
    dets.append(make_detection([1.0, 0.0, 2.0], -emb))  # fails the class gate
    dets.append(make_detection([1.0, 0.1, 2.0], emb))  # passes, but loses landmark 0 to dets[0]
    decisions = da.associate_frame(dets, snap, cfg)
    if strategy == "new_only":  # every detection is new: the loose gate alone decides
        assert [d.ambiguous for d in decisions] == [True, True, False, False, True]
        return
    assert not decisions[0].is_new and not decisions[0].ambiguous
    assert [d.is_new for d in decisions[1:]] == [True] * 4
    # inside the loose gate of a landmark, claimed or not: dropped as ambiguous
    assert [d.ambiguous for d in decisions[1:]] == [True, False, False, True]


def test_update_landmark_embedding_running_mean():
    lm = da.Landmark(0, np.zeros(3), np.array([1.0, 0.0]))
    da.update_landmark_embedding(lm, np.array([0.0, 1.0]))
    assert np.allclose(lm.embedding, [0.5, 0.5])
    assert lm.count == 2
    lm2 = da.Landmark(1, np.zeros(3), np.array([0.3, 0.7]))
    da.update_landmark_embedding(lm2, np.array([0.3, 0.7]))
    assert np.allclose(lm2.embedding, [0.3, 0.7])


def test_one_hot_embedding():
    v = da.one_hot_embedding(2, 5)
    assert v.tolist() == [0, 0, 1, 0, 0]
    assert da.cosine_similarity(v, da.one_hot_embedding(2, 5)) == pytest.approx(1.0)
    assert da.cosine_similarity(v, da.one_hot_embedding(3, 5)) == pytest.approx(0.0)
