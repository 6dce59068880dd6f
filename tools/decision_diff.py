#!/usr/bin/env python3
"""Compare the association decisions and map quality of two checkouts.

    python3 tools/decision_diff.py --checkout parent=../parent --checkout change=.

Each checkout runs ``run_slam`` with the decision log on, in its own process
from the checkout's root, on the default ``WorldConfig`` cut to ``LOOPS`` x
``KEYFRAMES_PER_LOOP`` keyframes, odometry noise multiplier ``NOISE``, seed
``SEED``: the ``ml``, ``mm`` and ``em`` strategies at ``optimize_every`` 1
and 10. Per row the script checks that every decision's kind and landmark ids
match, that every D^2 and log-marginal and the APE RMSE agree within
``REL_TOL`` relative, and that the landmark count and map precision/recall
are identical. It prints the largest relative differences
of each row and exits non-zero when any row differs.

    python3 tools/decision_diff.py --detect --checkout parent=../parent --checkout change=.

``--detect`` compares the segmentation front-end instead: each checkout runs
``segmentation.detect`` on every frame that the ``detect_stream`` benchmark
workload sets up (``perfbench/workloads.py::setup_detect`` at full scale, for
each seed in ``DETECT_SEEDS``), in its own process from the checkout's root
with one BLAS thread. Each frame is reduced to a digest of raw bytes: its
``cluster_features`` labels, centroids and ``wcss_history`` length (so the
clustering itself is compared, not only the detections that survive the
saliency vote), then each detection's embedding, point, covariance and area.
``cluster_features`` runs outside the timed ``detect`` call. The script prints each
checkout's detection count and summed ``detect`` seconds, lists the frames
whose digests differ for each seed and exits non-zero when any does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROWS = tuple((s, every) for s in ("ml", "mm", "em") for every in (1, 10))
LOOPS = 2
KEYFRAMES_PER_LOOP = 100
NOISE = 3.0
SEED = 0
REL_TOL = 1e-12
DETECT_SEEDS = (0, 1)
ROW = "--row"  # internal: run one row in this process and print its JSON
DETECT_ROW = "--detect-row"  # internal: run detect over the frames in this process


def run_row(strategy: str, optimize_every: int) -> dict:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from objectslam import evaluation, pipeline, simworld
    from objectslam.association import DAConfig

    world, trajectory, dataset = simworld.simulate(
        simworld.WorldConfig(loops=LOOPS, keyframes_per_loop=KEYFRAMES_PER_LOOP),
        simworld.NoiseModel(multiplier=NOISE), SEED)
    result = pipeline.run_slam(dataset, pipeline.SlamConfig(
        da=DAConfig(strategy=strategy), optimize_every=optimize_every, log_decisions=True))
    report = evaluation.map_report(result.landmarks, world)
    return {"log": result.decision_log, "landmarks": len(result.landmarks),
            "precision": report.precision, "recall": report.recall,
            "ape_rmse": evaluation.ape(result.trajectory, trajectory).rmse}


def run_detect(seed: int) -> dict:
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from objectslam import segmentation

    inputs = workloads.setup_detect(seed, workloads.FULL,
                                    workloads.Stopwatch(workloads.Reference()))
    config = inputs["config"]
    digests, detections, seconds = [], 0, 0.0
    for frame in (frame for frames in inputs["frames"] for frame in frames):
        t0 = time.perf_counter()
        found = segmentation.detect(frame.grid, config)
        seconds += time.perf_counter() - t0
        clusters = segmentation.cluster_features(frame.grid, config.k, config.max_iters,
                                                 config.seed)
        digest = hashlib.sha256()
        for array in (clusters.labels.astype(np.int64), clusters.centroids,
                      np.int64(len(clusters.wcss_history))):
            digest.update(array.tobytes())
        for det in found:
            for array in (det.embedding, det.point, det.point_covariance, np.int64(det.area)):
                digest.update(array.tobytes())
        digests.append(digest.hexdigest())
        detections += len(found)
    return {"digests": digests, "detections": detections, "detect_s": seconds}


def diff_detect(checkouts: list) -> int:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    failed = False
    for seed in DETECT_SEEDS:
        runs = []
        for label, root in checkouts:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), DETECT_ROW, str(seed)],
                cwd=root, env=env, capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"seed {seed} {label}: {len(runs[-1]['digests'])} frames, "
                  f"{runs[-1]['detections']} detections, detect {runs[-1]['detect_s']:.2f} s",
                  flush=True)
        base, other = (run["digests"] for run in runs)
        differing = [f for f, (a, b) in enumerate(zip(base, other)) if a != b]
        if len(base) != len(other):
            print(f"seed {seed}: frame count differs: {len(base)} != {len(other)}")
        print(f"seed {seed}: {len(differing)} frames differ"
              + (f": {differing[:20]}" if differing else ""), flush=True)
        failed |= bool(differing) or len(base) != len(other)
    return int(failed)


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def compare(base: dict, other: dict) -> tuple[list, dict]:
    """(mismatches, largest relative differences) of two rows."""
    bad = [name for name in ("landmarks", "precision", "recall") if base[name] != other[name]]
    worst = {"d2": 0.0, "log_marginal": 0.0, "ape_rmse": rel(base["ape_rmse"], other["ape_rmse"])}
    if len(base["log"]) != len(other["log"]):
        return bad + ["decision log length"], worst
    for rb, ro in zip(base["log"], other["log"]):
        for db, do in zip(rb["decisions"], ro["decisions"], strict=True):
            hb, ho = db["hypotheses"], do["hypotheses"]
            if (db["kind"] != do["kind"] or [p[0] for p in db["pairs"]] != [p[0] for p in do["pairs"]]
                    or [h["landmark"] for h in hb] != [h["landmark"] for h in ho]):
                bad.append(f"frame {rb['frame']}: {db} != {do}")
                continue
            for name in ("d2", "log_marginal"):
                worst[name] = max([worst[name]] + [rel(a[name], b[name]) for a, b in zip(hb, ho)])
    return bad, worst


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == [ROW]:
        strategy, every = argv[1:]
        print(json.dumps(run_row(strategy, int(every))))
        return 0
    if argv[:1] == [DETECT_ROW]:
        print(json.dumps(run_detect(int(argv[1]))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", action="append", required=True, metavar="LABEL=PATH",
                        help="give two: the baseline, then the one compared with it")
    parser.add_argument("--detect", action="store_true",
                        help="compare detect() on the detect_stream frames instead")
    args = parser.parse_args(argv)
    checkouts = [tuple(c.split("=", 1)) for c in args.checkout]
    if len(checkouts) != 2 or any(len(c) != 2 for c in checkouts):
        parser.error("give --checkout LABEL=PATH twice")
    if args.detect:
        return diff_detect(checkouts)
    failed = False
    for strategy, every in ROWS:
        rows = []
        for _, root in checkouts:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), ROW, strategy, str(every)],
                cwd=root, capture_output=True, text=True, check=True)
            rows.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        bad, worst = compare(*rows)
        bad += [f"{name} differs by {value:.2g} relative"
                for name, value in worst.items() if value > REL_TOL]
        failed |= bool(bad)
        print(f"{strategy} optimize_every={every}: landmarks {rows[1]['landmarks']}, "
              f"P/R {rows[1]['precision']:.3f}/{rows[1]['recall']:.3f}, largest rel diff "
              + ", ".join(f"{k} {v:.2g}" for k, v in worst.items())
              + ("" if not bad else "\n  " + "\n  ".join(bad[:5])), flush=True)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
