"""Metrics of a measured run: the gated end-to-end set, the workload-named set, per-layer."""

import statistics

import layers
import workloads


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def quality(workload, run) -> dict:
    """The workload's output quality, from the first timed round."""
    if run.failed or not run.rounds:
        return {}
    return workload.summarize(run.rounds[0][1])


def setup_seconds(run) -> float:
    """Median set-up time, scaled to a machine on which a reference chunk takes 1 ms.

    Set-up is short, so the seconds-to-minutes slowdowns of a shared
    machine move its raw time by a quarter; dividing by the reference
    chunks timed between its steps removes that, as for ``cost_per_op``.
    """
    return workloads.NOMINAL_REFERENCE_S * statistics.median(
        work / reference for work, reference in run.setups)


def named_metrics(workload, run) -> dict:
    """The workload-specific end-to-end metrics, under their own names."""
    out = {"setup_s": metric(setup_seconds(run), "s"),
           "setup_raw_s": metric(statistics.median(work for work, _ in run.setups), "s"),
           "peak_rss_mb": metric(run.peak_rss_mb, "MB"),
           "failed_frac": metric(run.failed / run.attempted, "ratio")}
    stats = workloads.latency_stats(run.timed(False))
    if run.failed or not stats:
        return out
    out["cost_per_op"] = metric(stats["cost_per_op"], "ref")
    tails = {key: stats[key] for key in ("ms_p99", "ms_p90") if key in stats}
    if workload.op == "keyframe":
        out["ms_per_keyframe"] = metric(stats["ms_per_op"], "ms")
        out["keyframe_ms_p50"] = metric(stats["ms_p50"], "ms")
        out.update({"keyframe_" + k: metric(v, "ms") for k, v in tails.items()})
    elif workload.op == "solve":
        out["solve_s_p50"] = metric(stats["ms_p50"] / 1e3, "s")
        out.update({"solve_s_" + k[3:]: metric(v / 1e3, "s") for k, v in tails.items()})
    else:
        out["frame_ms_p50"] = metric(stats["ms_p50"], "ms")
        out.update({"frame_" + k: metric(v, "ms") for k, v in tails.items()})
    units = {"ape_rmse_m": "m", "odometry_ape_m": "m", "map_precision": "ratio",
             "map_recall": "ratio", "detect_recall": "ratio",
             "detect_precision": "ratio", "lm_iterations": "count"}
    out.update({k: metric(v, units[k]) for k, v in quality(workload, run).items()})
    return out


def quality_loss(workload, q: dict) -> float:
    """Lower-is-better output error, comparable across runs of one workload.

    Graph workloads: APE RMSE in units of the simulated point noise.
    detect_stream: 1 - F1 of detections against truth objects.
    """
    if workload.op == "frame":
        p, r = q["detect_precision"], q["detect_recall"]
        return 1.0 - (2.0 * p * r / (p + r) if p + r else 0.0)
    return q["ape_rmse_m"] / workloads.FULL.world_config().sigma_point


def end_to_end(workload, run, named: dict) -> dict:
    stats = workloads.latency_stats(run.timed(False))
    if run.failed or not stats:
        # a run whose operations failed has no timings
        return {key: named[key] for key in ("setup_s", "peak_rss_mb", "failed_frac")}
    return {
        "setup_s": named["setup_s"],
        "cost_per_op": metric(stats["cost_per_op"], "ref"),
        "peak_rss_mb": named["peak_rss_mb"],
        "quality_loss": metric(quality_loss(workload, quality(workload, run)), "ratio"),
    }


def per_layer(run, setup_tracer, round_tracer) -> tuple[dict, list]:
    """Per-layer metrics of the traced rounds and set-ups, plus the tracing overhead."""
    traced_rounds = sum(1 for traced, _ in run.rounds if traced)
    metrics, absent = layers.layer_metrics(layers.PER_LAYER, round_tracer, traced_rounds)
    setup_metrics, setup_absent = layers.layer_metrics(
        layers.SETUP_LAYER, setup_tracer, len(run.setups))
    metrics.update(setup_metrics)
    plain = workloads.latency_stats(run.timed(False))
    traced = workloads.latency_stats(run.timed(True))
    if plain and traced:
        metrics["trace.overhead_frac"] = metric(
            traced["cost_per_op"] / plain["cost_per_op"] - 1.0, "ratio")
    return metrics, absent + setup_absent
