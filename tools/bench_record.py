#!/usr/bin/env python3
"""Run the perfbench benchmark on one or more checkouts and record the results.

    python3 tools/bench_record.py --pr 7 --checkout parent=../parent --checkout change=. \\
        --workloads graph_online graph_batch --seeds 0 1 --pairs 5 --out BENCH_7.json
    python3 tools/bench_record.py --pr 9 --checkout parent=../parent --checkout change=. \\
        --run-slam --out BENCH_9.json

For every workload and seed, each checkout runs ``python3 perfbench/run.py
--trace 0`` ``--pairs`` times, in an order that alternates from one round to
the next, then ``--trace 1`` once. Every run starts in its own process from
the checkout's root, so each measures the code of its own tree. The output
JSON holds, per checkout and workload, the gated end-to-end metrics and the
workload-named metrics of the untraced runs (every value, median and
quartiles) and the per-layer metrics of the traced runs (median). With two
or more checkouts, ``comparison`` sets each later checkout against the first:
pairs won on each end-to-end metric (ties count for neither) and the median
change next to the first checkout's interquartile range.

``--run-slam`` also records, per checkout, end-to-end ``run_slam`` rows, all
with odometry noise multiplier 3 and seed 0. Four run the 1500-frame desk
scene, the default ``WorldConfig`` (12 objects, 3 loops of 500 keyframes):
the ``ml`` strategy with ``optimize_every`` 1 and 10, and the ``mm`` and
``em`` strategies with ``optimize_every`` 10, since only these build
max-mixture and EM-weighted observation rows and no perfbench workload does.
A fifth runs ``ml`` with ``optimize_every`` 10 on the many-object scene: 300
objects on a field 5 times as wide (25 times the area, so the same object
density) with a path 5 times as long, 3 loops of 200 keyframes. Its border
to the landmarks is far wider than the desk scene's, which is where the
factorization's cost per keyframe grows with N. Each row runs ``--pairs``
times per checkout, in the same alternating order as the workloads, each run
in its own process from the checkout's root. A row records ms per frame
(every value, median and quartiles) and the median per third of its frames
(``finalize`` counts in the last frame), then the APE RMSE, landmark count and
map precision/recall of the first run, and whether every repeat gave the same
four.

``--solve-cost`` also records, per checkout, what one capped solve costs on
``graph_online`` traffic: each of ``--pairs`` processes per checkout, in the
same alternating order, replays ``SOLVE_COST_ROUNDS`` rounds of the
workload's keyframes (seed 0, every dataset) and times each 2-iteration
solve plus the joint marginals that follow it, the first round only to warm
up. Each process gives the median ms at ``SOLVE_COST_POSES``: few poses,
where the cost is the fixed part of a solve, and near the end of a pass,
where the per-pose part adds to it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# lower is better for every gated metric (see BENCHMARK.json)
END_TO_END = ("setup_s", "cost_per_op", "peak_rss_mb", "quality_loss")
# scene name -> WorldConfig fields that differ from the default
SLAM_SCENES = {
    "desk": {},
    "many_objects": {"object_count": 300, "extent": 5 * 3.0, "path_length": 5 * 21.7,
                     "keyframes_per_loop": 200},
}
SLAM_ROWS = (("desk", "ml", 1), ("desk", "ml", 10), ("desk", "mm", 10), ("desk", "em", 10),
             ("many_objects", "ml", 10))  # (scene, strategy, optimize_every)
SLAM_NOISE_MULTIPLIER = 3.0
SLAM_SEED = 0
SLAM_ROW = "--slam-row"  # internal: run one run_slam row in this process
SOLVE_COST_POSES = (11, 291)  # graph sizes of the capped solves --solve-cost times
SOLVE_COST_ROUNDS = 3
SOLVE_COST_ROW = "--solve-cost-row"  # internal: time the solves in this process


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--checkout", action="append", required=True, metavar="LABEL=PATH",
                        help="a checkout to measure; the first is the baseline")
    parser.add_argument("--workloads", nargs="*", default=[])
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--pairs", type=int, default=10,
                        help="untraced runs per checkout, workload and seed, and runs "
                             "per checkout of each run_slam row")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--run-slam", action="store_true",
                        help="also record the run_slam rows of each checkout")
    parser.add_argument("--solve-cost", action="store_true",
                        help="also record the cost of one capped graph_online solve per checkout")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if not (args.workloads or args.run_slam or args.solve_cost):
        parser.error("give --workloads, --run-slam, --solve-cost or a mix")
    args.checkout = [tuple(c.split("=", 1)) for c in args.checkout]
    if any(len(c) != 2 for c in args.checkout):
        parser.error("--checkout takes LABEL=PATH")
    return args


def run_once(root: Path, workload: str, seed: int, trace: int, seconds: float) -> dict:
    """One benchmark process; its last stdout line is the result JSON."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{root}: {workload} seed {seed} trace {trace} failed:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["named"] = {name: float(value) for _, name, value, _ in
                       (line.split() for line in lines if line.startswith("metric "))}
    result["environment"] = next(json.loads(line[len("environment "):]) for line in lines
                                 if line.startswith("environment "))
    return result


def spread(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize(untraced: list, traced: list) -> dict:
    gated = {name: spread([r["metrics"][name]["value"] for r in untraced])
             for name in END_TO_END if all(name in r["metrics"] for r in untraced)}
    named = {name: spread([r["named"][name] for r in untraced])
             for name in untraced[0]["named"] if all(name in r["named"] for r in untraced)}
    per_layer = {name: statistics.median(r["metrics"][name]["value"] for r in traced)
                 for name in traced[0]["metrics"]}
    return {"correct": all(r["correct"] for r in untraced + traced),
            "failed": sum(r["failed"] for r in untraced + traced),
            "end_to_end": gated, "named": named, "per_layer": per_layer}


def compare(base: dict, other: dict) -> dict:
    out = {}
    for name, b in base["end_to_end"].items():
        o = other["end_to_end"].get(name)
        if o is None:
            continue
        pairs = list(zip(b["values"], o["values"]))
        out[name] = {
            "pairs": len(pairs),
            "wins": sum(ov < bv for bv, ov in pairs),
            "losses": sum(ov > bv for bv, ov in pairs),
            "median_change": o["median"] / b["median"] - 1.0 if b["median"] else None,
            "median_delta": o["median"] - b["median"],
            "base_iqr": b["q3"] - b["q1"],
        }
    return out


def slam_row(scene: str, strategy: str, optimize_every: int) -> dict:
    """One run_slam row on a scene of ``SLAM_SCENES``, with the package from the
    working directory's src/; frame times come from timing each keyframe."""
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    from objectslam import evaluation, pipeline, simworld
    from objectslam.association import DAConfig

    if Path(pipeline.__file__).resolve().parent != (src / "objectslam").resolve():
        raise SystemExit(f"error: objectslam imported from {pipeline.__file__}, not {src}")
    world, trajectory, dataset = simworld.simulate(
        simworld.WorldConfig(**SLAM_SCENES[scene]),
        simworld.NoiseModel(multiplier=SLAM_NOISE_MULTIPLIER), SLAM_SEED)
    system = pipeline.SlamSystem(pipeline.SlamConfig(da=DAConfig(strategy=strategy),
                                                     optimize_every=optimize_every))
    keyframes = dataset.keyframes
    frame_s = []
    for k, kf in enumerate(keyframes):
        t0 = time.perf_counter()
        system.add_keyframe(None if k == 0 else (kf.odom, kf.odom_sigmas), kf.detections)
        if k == len(keyframes) - 1:
            system.finalize()
        frame_s.append(time.perf_counter() - t0)
    thirds = [frame_s[i * len(frame_s) // 3:(i + 1) * len(frame_s) // 3] for i in range(3)]
    landmarks = system.landmarks()
    report = evaluation.map_report(landmarks, world)
    ape = evaluation.ape(system.trajectory([kf.t for kf in keyframes]), trajectory)
    return {"scene": scene, "objects": len(world.objects), "frames": len(frame_s),
            "optimize_every": optimize_every, "strategy": strategy,
            "noise_multiplier": SLAM_NOISE_MULTIPLIER, "seed": SLAM_SEED,
            "wall_s": sum(frame_s), "ms_per_frame": 1e3 * sum(frame_s) / len(frame_s),
            "ms_per_frame_thirds": [1e3 * sum(t) / len(t) for t in thirds],
            "ape_rmse_m": ape.rmse, "landmarks": len(landmarks),
            "map_precision": report.precision, "map_recall": report.recall}


def summarize_slam(runs: list) -> dict:
    """One run_slam row over its repeats."""
    row = dict(runs[0], repeats=len(runs))
    for name in ("wall_s", "ms_per_frame"):
        row[name] = spread([r[name] for r in runs])
    row["ms_per_frame_thirds"] = [statistics.median(third) for third in
                                  zip(*(r["ms_per_frame_thirds"] for r in runs))]
    row["deterministic"] = all(r[name] == runs[0][name] for r in runs for name in
                               ("ape_rmse_m", "landmarks", "map_precision", "map_recall"))
    return row


def solve_cost_row() -> dict:
    """Median ms of a capped solve plus marginals at each SOLVE_COST_POSES
    graph size, on the graph_online traffic of the working directory's
    checkout (its perfbench workload and src/), over every dataset of the
    rounds after the first."""
    for part in ("src", "perfbench"):
        sys.path.insert(0, str(Path.cwd() / part))
    import workloads
    from objectslam import graph

    inputs = workloads.setup_graph(0, workloads.FULL,
                                   workloads.Stopwatch(workloads.Reference()))
    capped = graph.LMConfig(max_iterations=workloads.ONLINE_LM_ITERATIONS)
    ms = {n: [] for n in SOLVE_COST_POSES}
    for sim in inputs["sims"] * SOLVE_COST_ROUNDS:
        g = graph.FactorGraph()
        for k in range(max(SOLVE_COST_POSES)):
            workloads._add_keyframe(g, k, sim, inputs["prior_cov"])
            if k and k % workloads.OPTIMIZE_EVERY == 0:
                t0 = time.perf_counter()
                g.optimize(capped)
                g.joint_marginals(k, sorted(g.landmarks))
                if k + 1 in ms:
                    ms[k + 1].append(1e3 * (time.perf_counter() - t0))
    warm = len(inputs["sims"])
    return {str(n): statistics.median(values[warm:]) for n, values in ms.items()}


def run_internal(root: Path, *args: str) -> dict:
    """One internal row of this script in its own process from a checkout's
    root, with one BLAS thread; its last stdout line is the row's JSON."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args], cwd=root,
                          env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{root}: {' '.join(args)} failed:\n{proc.stderr[-2000:]}")
    print(f"{root} {' '.join(args)}: {lines[-1]}", flush=True)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == [SLAM_ROW]:
        print(json.dumps(slam_row(argv[1], argv[2], int(argv[3]))))
        return 0
    if argv[:1] == [SOLVE_COST_ROW]:
        print(json.dumps(solve_cost_row()))
        return 0
    args = parse_args(argv)
    raw = {label: {} for label, _ in args.checkout}
    machine = None
    for workload in args.workloads:
        for seed in args.seeds:
            key = f"{workload}/seed{seed}"
            runs = {label: ([], []) for label, _ in args.checkout}
            for i in range(args.pairs):
                order = args.checkout if i % 2 == 0 else args.checkout[::-1]
                for label, root in order:
                    result = run_once(Path(root), workload, seed, 0, args.seconds)
                    runs[label][0].append(result)
                    print(f"{key} {label} run {i + 1}: {json.dumps(result['metrics'])}",
                          flush=True)
            for label, root in args.checkout:
                runs[label][1].append(run_once(Path(root), workload, seed, 1, args.seconds))
                raw[label][key] = summarize(*runs[label])
            machine = machine or runs[args.checkout[0][0]][0][0]["environment"]
    slam = {label: [] for label, _ in args.checkout} if args.run_slam else {}
    for scene, strategy, every in SLAM_ROWS if args.run_slam else ():
        runs = {label: [] for label, _ in args.checkout}
        for i in range(args.pairs):
            for label, root in args.checkout if i % 2 == 0 else args.checkout[::-1]:
                runs[label].append(run_internal(Path(root), SLAM_ROW, scene, strategy,
                                                str(every)))
        for label, _ in args.checkout:
            slam[label].append(summarize_slam(runs[label]))
    solve_cost = {}
    if args.solve_cost:
        runs = {label: [] for label, _ in args.checkout}
        for i in range(args.pairs):
            for label, root in args.checkout if i % 2 == 0 else args.checkout[::-1]:
                runs[label].append(run_internal(Path(root), SOLVE_COST_ROW))
        solve_cost = {label: {f"ms_at_{n}_poses": spread([r[n] for r in rows])
                              for n in rows[0]} for label, rows in runs.items()}
    first = args.checkout[0][0]
    record = {
        "pr": args.pr,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}"
                   " --trace T",
        "pairs": args.pairs,
        "machine": machine and {key: machine[key] for key in
                                ("nproc", "python", "numpy", "scipy", "blas", "blas_threads")},
        "checkouts": raw,
        "comparison": {label: {key: compare(raw[first][key], raw[label][key])
                               for key in raw[label]}
                       for label, _ in args.checkout[1:]},
    }
    if slam:
        record["run_slam"] = slam
    if solve_cost:
        record["solve_cost"] = solve_cost
    out = args.out or Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
