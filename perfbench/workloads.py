"""The benchmark's workloads: inputs made from a seed, passes of fixed work, checks.

Every workload runs on one simulator scenario: the default ``WorldConfig``
objects (12 objects, 7 classes) on a 3-loop circuit of 100 keyframes per
loop, with odometry noise ``NoiseModel(multiplier=3.0)``. The scenario has
``datasets`` worlds whose layouts are fixed; the seed draws every noise
sample (odometry, detections, embeddings, feature grids). A pass is one
dataset's worth of a workload's operations; a round is one pass over every
dataset. The loop is closed: the next operation starts when the last one
returns.

Operations (the unit of ``attempted``/``failed`` and of the latency samples):

- ``graph_online``: one keyframe appended to a growing ``FactorGraph`` with
  simulator-truth associations; every 10th keyframe also runs a 2-iteration
  LM solve and the joint marginals of the newest pose with every landmark.
  The last keyframe of a pass includes the final full solve.
- ``graph_batch``: one solve to convergence of a freshly built full graph
  plus the joint marginals of the last pose. Graph building is not timed.
- ``detect_stream``: ``segmentation.detect`` on one rendered feature grid.
- ``slam_online``: one ``SlamSystem.add_keyframe``; the last keyframe of a
  pass includes ``finalize()``.

An operation that raises fails, and in the online workloads so does every
later keyframe of its pass, since the graph it built is incomplete.
"""

from __future__ import annotations

import gc
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from objectslam import evaluation, factors, geometry, graph, pipeline, segmentation, simworld
from objectslam.association import DAConfig

NOISE_MULTIPLIER = 3.0
OPTIMIZE_EVERY = 10
ONLINE_LM_ITERATIONS = 2
# Object layouts and class prototypes come from this fixed seed, so runs with
# different seeds differ in their noise and not in how much work a world holds.
WORLD_SEED = 2404
# sensor (+x forward, +z up) -> optical (+z forward, +y down)
SENSOR_TO_OPTICAL = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
# a detection matches a truth object within this distance and above this cosine
MATCH_RADIUS_M = 0.3
MATCH_COSINE = 0.8
PSD_TOLERANCE = -1e-10
# one reference chunk is timed per this much timed work
REFERENCE_EVERY_S = 0.01
# setup_s is reported as if a reference chunk took this long (see report.py)
NOMINAL_REFERENCE_S = 0.001


@dataclass(frozen=True)
class Scale:
    loops: int = 3
    keyframes_per_loop: int = 100
    datasets: int = 4
    frame_stride: int = 4      # detect_stream renders every n-th keyframe
    setup_repeats: int = 5

    def world_config(self) -> simworld.WorldConfig:
        return simworld.WorldConfig(loops=self.loops, keyframes_per_loop=self.keyframes_per_loop)


FULL = Scale()


@dataclass
class Sim:
    world: simworld.World
    trajectory: list
    dataset: simworld.Dataset


class Reference:
    """A fixed mix of Python, small-numpy and sparse-LU work that uses no objectslam code.

    On a shared machine co-tenants change how fast this process runs from
    one second to the next, by up to half. Timing this chunk between
    operations samples that speed; dividing operation time by reference
    time cancels most of it, and the program's own speed is what remains.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = (scipy.sparse.random(200, 200, density=0.02, random_state=1)
                       + 4.0 * scipy.sparse.eye(200)).tocsc()
        self.blocks = rng.normal(size=(40, 6, 6))
        self.points = rng.normal(size=(500, 3))

    def run(self) -> float:
        t0 = time.perf_counter()
        table = {(i, i + 1): [i, 0.5 * i] for i in range(100)}
        sum(v[1] for v in table.values())
        for _ in range(3):
            self.blocks @ self.blocks
            np.einsum("ni,ni->n", self.points, self.points)
        scipy.sparse.linalg.splu(self.matrix)
        return time.perf_counter() - t0


class Stopwatch:
    """Sums timed work and times a reference chunk after every REFERENCE_EVERY_S of it."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.work_s = 0.0
        self.reference_s: list[float] = []
        self._unreferenced_s = 0.0
        self._lap_start = time.perf_counter()

    def add(self, elapsed: float) -> None:
        self.work_s += elapsed
        self._unreferenced_s += elapsed
        while self._unreferenced_s >= REFERENCE_EVERY_S:
            self.reference_s.append(self.reference.run())
            self._unreferenced_s -= REFERENCE_EVERY_S

    def lap(self) -> None:
        """Count the time since the previous lap as work, then restart the lap."""
        self.add(time.perf_counter() - self._lap_start)
        self._lap_start = time.perf_counter()

    def reference_mean(self) -> float:
        if not self.reference_s:
            self.reference_s.append(self.reference.run())
        return float(np.mean(self.reference_s))


@dataclass
class Pass:
    """One dataset's operations: latencies of those that succeeded, failures, checks."""

    dataset: int
    watch: Stopwatch          # samples the reference between operations
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)

    def record(self, elapsed: float) -> None:
        self.latencies.append(elapsed)
        self.watch.add(elapsed)

    def fail(self, count: int, where: str) -> None:
        self.failed += count
        self.errors.append(f"dataset {self.dataset} {where}: {traceback.format_exc()}")

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(f"dataset {self.dataset}: {message}")


def simulate_all(seed: int, scale: Scale, watch: Stopwatch) -> list[Sim]:
    """One dataset per fixed world; the seed draws the noise."""
    noise = simworld.NoiseModel(multiplier=NOISE_MULTIPLIER)
    config = scale.world_config()
    trajectory = simworld.generate_trajectory(config.loops, config.keyframes_per_loop,
                                              config.path_length, config.rate_hz)
    sims = []
    for i in range(scale.datasets):
        world = simworld.generate_world(config, np.random.default_rng([WORLD_SEED, i]))
        dataset = simworld.generate_dataset(world, trajectory, noise,
                                            np.random.default_rng([seed, i]))
        sims.append(Sim(world, trajectory, dataset))
        watch.lap()
    return sims


def _ape(estimate, sim: Sim) -> float:
    return evaluation.ape(estimate, sim.trajectory).rmse


def _odometry_ape(sim: Sim) -> float:
    result = pipeline.run_slam(sim.dataset, pipeline.SlamConfig(), odometry_only=True)
    return _ape(result.trajectory, sim)


def _check_marginals(p: Pass, blocks: dict, where: str) -> None:
    for key, block in blocks.items():
        symmetric = bool(np.all(np.isfinite(block))) and np.array_equal(block, block.T)
        p.check(symmetric, f"{where}: marginal block of landmark {key} is not symmetric")
        if symmetric:
            p.check(np.linalg.eigvalsh(block)[0] >= PSD_TOLERANCE,
                    f"{where}: marginal block of landmark {key} is not PSD")


def _check_ape(p: Pass, estimate, inputs: dict) -> None:
    sim = inputs["sims"][p.dataset]
    ape = _ape(estimate, sim)
    odometry = inputs["odometry_ape"][p.dataset]
    p.check(ape < odometry, f"APE {ape:.4f} m is not below odometry-only {odometry:.4f} m")
    p.quality["ape_rmse_m"] = ape
    p.quality["odometry_ape_m"] = odometry


def _tangent_cov(sigmas_xyzrpy) -> np.ndarray:
    s = np.asarray(sigmas_xyzrpy, dtype=float)
    return np.diag(np.concatenate([s[3:], s[:3]]) ** 2)


def _add_keyframe(g: graph.FactorGraph, k: int, sim: Sim, prior_cov: np.ndarray) -> None:
    """Append pose k with its prior or between factor and its truth-associated observations."""
    kf = sim.dataset.keyframes[k]
    if k == 0:
        pose = geometry.Pose3.identity()
        g.add_pose(0, pose)
        g.add_factor(factors.PriorFactor(0, pose, prior_cov))
    else:
        pose = geometry.compose(g.poses[k - 1], kf.odom)
        g.add_pose(k, pose)
        g.add_factor(factors.BetweenFactor(k - 1, k, kf.odom, _tangent_cov(kf.odom_sigmas)))
    for det, obj_id in zip(kf.detections, sim.dataset.eval_truth_ids(k)):
        if obj_id not in g.landmarks:
            g.add_landmark(obj_id, pose.apply(det.point))
        g.add_factor(factors.ObservationFactor(k, obj_id, det.point, det.point_covariance))


def _estimate(g: graph.FactorGraph, sim: Sim) -> list:
    return [(kf.t, g.poses[k]) for k, kf in enumerate(sim.dataset.keyframes)]


def _mean_quality(passes: list) -> dict:
    return {key: float(np.mean([p.quality[key] for p in passes])) for key in passes[0].quality}


# ---------------------------------------------------------------------------
# graph_online and graph_batch
# ---------------------------------------------------------------------------

def setup_graph(seed: int, scale: Scale, watch: Stopwatch) -> dict:
    return {"sims": simulate_all(seed, scale, watch),
            "prior_cov": np.diag(pipeline.SlamConfig().prior_sigma ** 2)}


def pass_graph_online(inputs: dict, d: int) -> Pass:
    p = Pass(d, Stopwatch(inputs["reference"]))
    sim = inputs["sims"][d]
    n = len(sim.dataset)
    p.attempted = n
    lm = graph.LMConfig(max_iterations=ONLINE_LM_ITERATIONS)
    g = graph.FactorGraph()
    for k in range(n):
        t0 = time.perf_counter()
        try:
            _add_keyframe(g, k, sim, inputs["prior_cov"])
            blocks = None
            if k > 0 and k % OPTIMIZE_EVERY == 0:
                g.optimize(lm)
                blocks = g.joint_marginals(k, sorted(g.landmarks))
            if k == n - 1:
                g.optimize()
        except Exception:  # an operation that raises counts as failed
            p.fail(n - k, f"keyframe {k}")
            return p
        p.record(time.perf_counter() - t0)
        if blocks is not None:
            _check_marginals(p, blocks, f"keyframe {k}")
    _check_ape(p, _estimate(g, sim), inputs)
    return p


def pass_graph_batch(inputs: dict, d: int) -> Pass:
    p = Pass(d, Stopwatch(inputs["reference"]), attempted=1)
    sim = inputs["sims"][d]
    n = len(sim.dataset)
    try:
        g = graph.FactorGraph()
        for k in range(n):
            _add_keyframe(g, k, sim, inputs["prior_cov"])
        t0 = time.perf_counter()
        report = g.optimize()
        blocks = g.joint_marginals(n - 1, sorted(g.landmarks))
        elapsed = time.perf_counter() - t0
    except Exception:  # an operation that raises counts as failed
        p.fail(1, "solve")
        return p
    p.record(elapsed)
    p.check(report.converged, "batch solve did not converge")
    _check_marginals(p, blocks, "solve")
    _check_ape(p, _estimate(g, sim), inputs)
    p.quality["lm_iterations"] = report.iterations
    return p


# ---------------------------------------------------------------------------
# detect_stream
# ---------------------------------------------------------------------------

@dataclass
class Frame:
    grid: segmentation.FeatureGrid
    truth_points: np.ndarray     # (m, 3) optical-frame positions of the eligible objects
    truth_protos: np.ndarray     # (m, D) their class prototypes


def _eligible(mask: np.ndarray, min_size: int) -> bool:
    """Large enough to survive the size filter and clear of the grid border."""
    rows, cols = np.nonzero(mask)
    h, w = mask.shape
    return (rows.size >= min_size and rows.min() > 0 and cols.min() > 0
            and rows.max() < h - 1 and cols.max() < w - 1)


def setup_detect(seed: int, scale: Scale, watch: Stopwatch) -> dict:
    grid_config = simworld.GridConfig()
    extrinsic = geometry.Pose3(geometry.quat_from_rotation_matrix(SENSOR_TO_OPTICAL),
                               np.zeros(3))
    sims = simulate_all(seed, scale, watch)
    config = segmentation.SegmentationConfig(
        k=sims[0].world.config.class_count + 1, fx=grid_config.fx, fy=grid_config.fy,
        cx=grid_config.cx, cy=grid_config.cy, patch_size=grid_config.patch_size)
    frames = []
    for i, sim in enumerate(sims):
        rng = np.random.default_rng([seed, i, 1])
        objects = {o.id: o for o in sim.world.objects}
        frames.append([])
        for _, pose in sim.trajectory[::scale.frame_stride]:
            optical = geometry.compose(pose, extrinsic)
            grid, masks = simworld.synthesize_feature_grid(sim.world, optical, grid_config, rng)
            ids = [oid for oid, mask in sorted(masks.items()) if _eligible(mask, config.min_size)]
            points = np.array([geometry.measurement_model_h(optical, objects[oid].position)
                               for oid in ids]).reshape(-1, 3)
            protos = sim.world.prototypes[[objects[oid].class_id for oid in ids]]
            frames[-1].append(Frame(grid, points, protos))
            watch.lap()
    return {"frames": frames, "config": config}


def _match(detections, frame: Frame) -> int:
    """Greedy nearest one-to-one matches under the distance and class-cosine gates."""
    if not detections or len(frame.truth_points) == 0:
        return 0
    points = np.array([det.point for det in detections])
    embeddings = np.array([det.embedding for det in detections])
    dist = np.linalg.norm(points[:, None, :] - frame.truth_points[None, :, :], axis=2)
    cosine = (embeddings @ frame.truth_protos.T) / (
        np.linalg.norm(embeddings, axis=1)[:, None]
        * np.linalg.norm(frame.truth_protos, axis=1)[None, :])
    ok = (dist < MATCH_RADIUS_M) & (cosine > MATCH_COSINE)
    used_det, used_obj = set(), set()
    for i, j in sorted(zip(*np.nonzero(ok)), key=lambda ij: dist[ij]):
        if i not in used_det and j not in used_obj:
            used_det.add(i)
            used_obj.add(j)
    return len(used_det)


def pass_detect(inputs: dict, d: int) -> Pass:
    p = Pass(d, Stopwatch(inputs["reference"]))
    config = inputs["config"]
    matched = truths = detected = 0
    for f, frame in enumerate(inputs["frames"][d]):
        p.attempted += 1
        t0 = time.perf_counter()
        try:
            detections = segmentation.detect(frame.grid, config)
        except Exception:  # an operation that raises counts as failed
            p.fail(1, f"frame {f}")
            continue
        p.record(time.perf_counter() - t0)
        p.check(all(np.all(np.isfinite(det.point)) for det in detections),
                f"frame {f}: non-finite detection point")
        detected += len(detections)
        truths += len(frame.truth_points)
        matched += _match(detections, frame)
    p.quality = {"matched": matched, "truths": truths, "detections": detected}
    return p


def summarize_detect(passes: list) -> dict:
    total = {key: sum(p.quality[key] for p in passes) for key in passes[0].quality}
    recall = total["matched"] / total["truths"] if total["truths"] else 0.0
    precision = total["matched"] / total["detections"] if total["detections"] else 0.0
    return {"detect_recall": recall, "detect_precision": precision}


# ---------------------------------------------------------------------------
# slam_online
# ---------------------------------------------------------------------------

def pass_slam_online(inputs: dict, d: int) -> Pass:
    p = Pass(d, Stopwatch(inputs["reference"]))
    sim = inputs["sims"][d]
    keyframes = sim.dataset.keyframes
    n = len(keyframes)
    p.attempted = n
    system = pipeline.SlamSystem(
        pipeline.SlamConfig(da=DAConfig(strategy="ml"), optimize_every=OPTIMIZE_EVERY))
    for k, kf in enumerate(keyframes):
        t0 = time.perf_counter()
        try:
            system.add_keyframe(None if k == 0 else (kf.odom, kf.odom_sigmas), kf.detections)
            if k == n - 1:
                system.finalize()
        except Exception:  # an operation that raises counts as failed
            p.fail(n - k, f"keyframe {k}")
            return p
        p.record(time.perf_counter() - t0)
    _check_ape(p, system.trajectory([kf.t for kf in keyframes]), inputs)
    report = evaluation.map_report(system.landmarks(), sim.world)
    p.quality["map_precision"] = report.precision
    p.quality["map_recall"] = report.recall
    return p


# ---------------------------------------------------------------------------
# registry and the measuring loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    op: str                                   # what one operation is
    setup: Callable[[int, Scale, Stopwatch], dict]
    run_pass: Callable[[dict, int], Pass]
    summarize: Callable[[list], dict]         # quality of one round
    needs_odometry_ape: bool


WORKLOADS = {
    w.name: w for w in (
        Workload("graph_online", "keyframe", setup_graph, pass_graph_online,
                 _mean_quality, True),
        Workload("graph_batch", "solve", setup_graph, pass_graph_batch, _mean_quality, True),
        Workload("detect_stream", "frame", setup_detect, pass_detect, summarize_detect, False),
        Workload("slam_online", "keyframe", setup_graph, pass_slam_online,
                 _mean_quality, True),
    )
}


def timed_setup(workload: Workload, seed: int, scale: Scale):
    """Set up ``scale.setup_repeats`` times; return the last inputs and each set-up.

    Each set-up is (seconds of set-up work, mean reference-chunk seconds
    sampled between its steps). The odometry-only reference that the checks
    compare against is computed afterwards and is not part of the set-up.
    """
    reference = Reference()
    setups, inputs = [], None
    for _ in range(scale.setup_repeats):
        inputs = None  # let the previous set-up go before building the next
        gc.collect()
        watch = Stopwatch(reference)
        inputs = workload.setup(seed, scale, watch)
        watch.lap()
        setups.append((watch.work_s, watch.reference_mean()))
    if workload.needs_odometry_ape:
        inputs["odometry_ape"] = [_odometry_ape(sim) for sim in inputs["sims"]]
    inputs["reference"] = reference
    return inputs, setups


@dataclass
class Run:
    setups: list              # (work seconds, reference-chunk seconds) of each set-up
    warmup: Pass              # untimed first pass
    rounds: list              # [(traced, [Pass per dataset])]
    peak_rss_mb: float = 0.0  # after set-up and the warm-up pass

    @property
    def passes(self) -> list:
        return [self.warmup] + [p for _, passes in self.rounds for p in passes]

    def timed(self, traced: bool) -> list:
        return [p for t, passes in self.rounds if t == traced for p in passes]

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes)

    @property
    def problems(self) -> list:
        """Checks of every pass, plus any round whose outputs differ from the first."""
        problems = [msg for p in self.passes for msg in p.problems]
        first = [p.quality for p in self.rounds[0][1]] if self.rounds else []
        if any([p.quality for p in passes] != first for _, passes in self.rounds[1:]):
            problems.append("rounds of one run gave different outputs")
        return problems

    @property
    def correct(self) -> bool:
        return bool(self.rounds) and self.failed == 0 and not self.problems


def measure(workload: Workload, inputs: dict, seconds: float, datasets: int,
            tracer_factory=None, rss: Callable[[], float] | None = None) -> Run:
    """Run rounds (one pass per dataset) until ``seconds`` have passed.

    An untimed warm-up pass on dataset 0 comes first, so caches and lazy
    imports are warm. With ``tracer_factory`` (a context manager that
    installs the hooks) rounds alternate untraced and traced, starting
    untraced, so both see the same machine conditions; at least one round
    of each runs. A failed operation ends the run: repeating a broken
    pass measures nothing. ``setups`` of the returned run is left empty.
    """
    gc.collect()
    run = Run([], workload.run_pass(inputs, 0), [])
    if rss is not None:
        run.peak_rss_mb = rss()
    start = time.perf_counter()
    while not run.failed:
        traced = tracer_factory is not None and len(run.rounds) % 2 == 1
        passes = []
        for d in range(datasets):
            gc.collect()
            if traced:
                with tracer_factory():
                    passes.append(workload.run_pass(inputs, d))
            else:
                passes.append(workload.run_pass(inputs, d))
            if passes[-1].failed:
                break
        run.rounds.append((traced, passes))
        enough = tracer_factory is None or len(run.rounds) >= 2
        if enough and time.perf_counter() - start >= seconds:
            break
    if run.failed and tracer_factory is not None and not run.timed(True):
        with tracer_factory():  # trace the failing pass once as well
            run.rounds.append((True, [workload.run_pass(inputs, 0)]))
    return run


def percentile_name(n: int):
    """The highest of p99 and p90 with at least ten samples beyond it, else None."""
    for label, q in (("p99", 0.99), ("p90", 0.90)):
        if n * (1.0 - q) >= 10:
            return label, q
    return None, None


def latency_stats(passes: list) -> dict:
    """Operation-time statistics over the passes, plus the reference-relative cost.

    ``cost_per_op`` is the mean operation time over the mean reference chunk
    time of the same passes.
    """
    lat = [x for p in passes for x in p.latencies]
    ref = [x for p in passes for x in p.watch.reference_s]
    if not lat or not ref:
        return {}
    out = {"ms_per_op": 1e3 * float(np.mean(lat)), "ms_p50": 1e3 * float(np.median(lat)),
           "cost_per_op": float(np.mean(lat) / np.mean(ref))}
    label, q = percentile_name(len(lat))
    if label:
        out["ms_" + label] = 1e3 * float(np.quantile(lat, q))
    return out
