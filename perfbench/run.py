#!/usr/bin/env python3
"""Run one objectslam benchmark workload and print its metrics.

    python3 perfbench/run.py --workload graph_online --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of the
checkout that holds this file, never from an installed copy. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The lines before it name the
workload-specific metrics and the environment. Results and, when traced, the
spans are also written under ``.perfbench_out/``.

``--workload all`` runs every workload in turn, each in its own process.
"""

import os

# one BLAS thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("graph_online", "graph_batch", "detect_stream", "slam_online")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Put the checkout's src/ first on the path and import objectslam from it."""
    if not (SRC / "objectslam" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'objectslam'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import objectslam

    if Path(objectslam.__file__).resolve().parent != (SRC / "objectslam").resolve():
        raise SystemExit(f"error: objectslam imported from {objectslam.__file__}, not {SRC}")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_one(args, scale=None) -> int:
    import layers
    import report
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload]
    scale = scale or workloads.FULL
    setup_tracer, round_tracer = Tracer(), Tracer()
    if args.trace:
        setup_tracer.install(layers.HOOKS)
    try:
        inputs, setups = workloads.timed_setup(workload, args.seed, scale)
    finally:
        setup_tracer.uninstall()

    def traced():
        round_tracer.install(layers.HOOKS)
        return round_tracer

    run = workloads.measure(workload, inputs, args.seconds, scale.datasets,
                            traced if args.trace else None, peak_rss_mb)
    run.setups = setups

    env = environment(args)
    named = report.named_metrics(workload, run)
    if args.trace:
        metrics, absent = report.per_layer(run, setup_tracer, round_tracer)
        env["absent_hooks"] = sorted(absent)
    else:
        metrics = report.end_to_end(workload, run, named)

    errors = [e for p in run.passes for e in p.errors]
    problems = run.problems
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    if errors:
        print(f"{run.failed} of {run.attempted} operations failed; first error:\n{errors[0]}",
              file=sys.stderr)
    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as f:
        json.dump({"environment": env, "named": named, "problems": problems[:100],
                   "errors": errors[:5], "result": result}, f, indent=1)
    if args.trace:
        round_tracer.write_spans(OUT / f"{stem}-spans.jsonl")

    print("environment " + json.dumps(env))
    for name, m in named.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, check=False)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_package()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
