#!/usr/bin/env python3
"""Run the perfbench benchmark on one or more checkouts and record the results.

    python3 tools/bench_record.py --pr 7 --checkout parent=../parent --checkout change=. \\
        --workloads graph_online graph_batch --seeds 0 1 --pairs 5 --out BENCH_7.json

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
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# lower is better for every gated metric (see BENCHMARK.json)
END_TO_END = ("setup_s", "cost_per_op", "peak_rss_mb", "quality_loss")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--checkout", action="append", required=True, metavar="LABEL=PATH",
                        help="a checkout to measure; the first is the baseline")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--pairs", type=int, default=10,
                        help="untraced runs per checkout, workload and seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
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


def main(argv=None) -> int:
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
    first = args.checkout[0][0]
    record = {
        "pr": args.pr,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}"
                   " --trace T",
        "pairs": args.pairs,
        "machine": {key: machine[key]
                    for key in ("nproc", "python", "numpy", "scipy", "blas", "blas_threads")},
        "checkouts": raw,
        "comparison": {label: {key: compare(raw[first][key], raw[label][key])
                               for key in raw[label]}
                       for label, _ in args.checkout[1:]},
    }
    out = args.out or Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
