"""Which objectslam calls the traced run hooks, and the per-layer metrics they give.

Metric names describe roles, not functions: a later change may rename or
delete a hooked function, and its metrics are then reported as absent.
Every time is seconds per traced round and every count is per round; a
round is a fixed amount of work, so counts repeat exactly for a seed.
"""

from __future__ import annotations

from tracer import Hook, Tracer


def _count(key, fn):
    def on_result(counts, args, result):
        counts[key] += fn(args, result)
    return on_result


def _lu_fill(args, lu):
    return lu.L.nnz + lu.U.nnz


def _associations(counts, args, decisions):
    counts["association.decisions"] += len(decisions)
    counts["association.new"] += sum(1 for d in decisions if d.is_new)


def _components(counts, args, kept):
    counts["segmentation.components_in"] += len(args[0])
    counts["segmentation.components_kept"] += len(kept)


HOOKS = (
    # graph
    Hook("graph.add_factor", "objectslam.graph:FactorGraph.add_factor"),
    Hook("graph.optimize", "objectslam.graph:FactorGraph.optimize",
         _count("graph.lm_iterations", lambda args, report: report.iterations)),
    Hook("graph.marginals", "objectslam.graph:FactorGraph.joint_marginals"),
    Hook("graph.factorize", "objectslam.graph:FactorGraph._factorize",
         _count("graph.factorize.fill_nnz", _lu_fill)),
    Hook("graph.batch_build", "objectslam.graph:_BatchedFactors.__init__"),
    Hook("graph.linearize", "objectslam.graph:_BatchedFactors.linearize"),
    Hook("graph.error_only", "objectslam.graph:_BatchedFactors.error_only"),
    # factors
    Hook("factors.between_jacobians", "objectslam.factors:between_jacobians"),
    Hook("factors.observation_jacobians", "objectslam.factors:observation_jacobians"),
    Hook("factors.residuals", "objectslam.factors:observation_residuals"),
    Hook("factors.residuals", "objectslam.factors:pose_residuals"),
    Hook("factors.residuals", "objectslam.factors:relative_pose"),
    # geometry
    Hook("geometry.se3_jr_inv", "objectslam.geometry:se3_jr_inv"),
    Hook("geometry.se3_exp", "objectslam.geometry:se3_exp"),
    Hook("geometry.se3_log", "objectslam.geometry:se3_log"),
    # association
    Hook("association.associate_frame", "objectslam.association:associate_frame",
         _associations),
    Hook("association.blocks_new_landmark", "objectslam.association:blocks_new_landmark",
         _count("association.dropped_ambiguous", lambda args, blocked: int(bool(blocked)))),
    # pipeline
    Hook("pipeline.add_keyframe", "objectslam.pipeline:SlamSystem.add_keyframe"),
    Hook("pipeline.finalize", "objectslam.pipeline:SlamSystem.finalize"),
    # segmentation
    Hook("segmentation.detect", "objectslam.segmentation:detect"),
    Hook("segmentation.cluster_features", "objectslam.segmentation:cluster_features",
         _count("segmentation.kmeans_iterations",
                lambda args, clusters: len(clusters.wcss_history) - 1)),
    Hook("segmentation.vote_saliency", "objectslam.segmentation:vote_saliency"),
    Hook("segmentation.refine_mask", "objectslam.segmentation:refine_mask"),
    Hook("segmentation.connected_components", "objectslam.segmentation:connected_components"),
    Hook("segmentation.filter_components", "objectslam.segmentation:filter_components",
         _components),
    Hook("segmentation.extract_objects", "objectslam.segmentation:extract_objects"),
    # simworld (set-up)
    Hook("simworld.simulate", "objectslam.simworld:generate_world"),
    Hook("simworld.simulate", "objectslam.simworld:generate_dataset"),
    Hook("simworld.synthesize_feature_grid", "objectslam.simworld:synthesize_feature_grid"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Each entry: name -> (unit, spans it needs, fn(summary, counts, tracer), per_round).
# per_round totals are divided by the number of traced rounds; ratios and means are not.

def _span(key, field, unit="s"):
    return unit, (key,), lambda s, c, t: s.get(key, {}).get(field, 0.0), True


def _calls(key):
    return _span(key, "calls", "count")


def _counter(key, needs):
    return "count", needs, lambda s, c, t: c.get(key, 0.0), True


def _ratio_of(unit, needs, fn):
    return unit, needs, fn, False


PER_LAYER = {
    "graph.factorize.calls": _calls("graph.factorize"),
    "graph.factorize.s": _span("graph.factorize", "s"),
    # mean L+U non-zeros of one factorization
    "graph.factorize.fill_nnz": _ratio_of(
        "count", ("graph.factorize",),
        lambda s, c, t: _ratio(c.get("graph.factorize.fill_nnz", 0.0),
                               s.get("graph.factorize", {}).get("calls", 0))),
    "graph.marginals.calls": _calls("graph.marginals"),
    "graph.marginals.self_s": _span("graph.marginals", "self_s"),
    "graph.batch_build.calls": _calls("graph.batch_build"),
    "graph.batch_build.s": _span("graph.batch_build", "s"),
    "graph.linearize.s": _span("graph.linearize", "s"),
    "graph.error_only.s": _span("graph.error_only", "s"),
    "graph.optimize.self_s": _span("graph.optimize", "self_s"),
    "graph.lm_iterations": _counter("graph.lm_iterations", ("graph.optimize",)),
    # factorizations per accepted LM step; above 1 means rejected (wasted) steps
    "graph.factorize_per_iteration": _ratio_of(
        "ratio", ("graph.factorize", "graph.optimize"),
        lambda s, c, t: _ratio(t.count_within("graph.factorize", "graph.optimize"),
                               c.get("graph.lm_iterations", 0.0))),
    "graph.add_factor.calls": _calls("graph.add_factor"),
    "graph.add_factor.s": _span("graph.add_factor", "s"),
    "factors.between_jacobians.s": _span("factors.between_jacobians", "s"),
    "factors.observation_jacobians.s": _span("factors.observation_jacobians", "s"),
    "factors.residuals.s": _span("factors.residuals", "s"),
    "geometry.se3_jr_inv.calls": _calls("geometry.se3_jr_inv"),
    "geometry.se3_jr_inv.s": _span("geometry.se3_jr_inv", "s"),
    "geometry.se3_exp.s": _span("geometry.se3_exp", "s"),
    "geometry.se3_log.s": _span("geometry.se3_log", "s"),
    "association.associate_frame.calls": _calls("association.associate_frame"),
    "association.associate_frame.s": _span("association.associate_frame", "s"),
    "association.blocks_new_landmark.calls": _calls("association.blocks_new_landmark"),
    "association.blocks_new_landmark.s": _span("association.blocks_new_landmark", "s"),
    "association.new_frac": _ratio_of(
        "ratio", ("association.associate_frame",),
        lambda s, c, t: _ratio(c.get("association.new", 0.0),
                               c.get("association.decisions", 0.0))),
    "association.dropped_ambiguous": _counter(
        "association.dropped_ambiguous", ("association.blocks_new_landmark",)),
    "pipeline.add_keyframe.self_s": _span("pipeline.add_keyframe", "self_s"),
    "pipeline.finalize.s": _span("pipeline.finalize", "s"),
    "segmentation.cluster_features.s": _span("segmentation.cluster_features", "s"),
    "segmentation.kmeans_iterations": _counter(
        "segmentation.kmeans_iterations", ("segmentation.cluster_features",)),
    "segmentation.vote_saliency.s": _span("segmentation.vote_saliency", "s"),
    "segmentation.refine_mask.s": _span("segmentation.refine_mask", "s"),
    "segmentation.connected_components.s": _span("segmentation.connected_components", "s"),
    "segmentation.components_kept_frac": _ratio_of(
        "ratio", ("segmentation.filter_components",),
        lambda s, c, t: _ratio(c.get("segmentation.components_kept", 0.0),
                               c.get("segmentation.components_in", 0.0))),
    "segmentation.extract_objects.s": _span("segmentation.extract_objects", "s"),
    "segmentation.detect.self_s": _span("segmentation.detect", "self_s"),
}

# measured over the traced set-ups rather than the traced rounds
SETUP_LAYER = {
    "simworld.simulate.s": _span("simworld.simulate", "s"),
    "simworld.synthesize_feature_grid.s": _span("simworld.synthesize_feature_grid", "s"),
}


def layer_metrics(table: dict, tracer: Tracer, per: int) -> tuple[dict, list[str]]:
    """Evaluate ``table`` on a tracer, dividing by ``per`` (rounds or set-ups).

    Returns (metrics, names left out because a hook they need is absent).
    """
    summary, counts = tracer.summary(), tracer.counts
    metrics, absent = {}, []
    for name, (unit, needs, fn, per_round) in table.items():
        if any(span in tracer.absent for span in needs):
            absent.append(name)
            continue
        value = float(fn(summary, counts, tracer))
        if per_round:
            value /= max(per, 1)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent
