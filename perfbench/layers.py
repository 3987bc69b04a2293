"""The program's layers as the traced run sees them: which functions get a span,
which exact work counts each call adds, and how spans become per-layer metrics.

The work counts (attention.lstm_steps, clustering.pairs, cca.fit_rows,
deep.batches, deep.gemm_flops, data.bytes_read) are computed from the
arguments, results and layer dims of the traced calls, not timed: they repeat
exactly for a given seed, so a change in one is a change in the work done.
"""

from __future__ import annotations

from avembed import cca, clustering, data, deep, evaluation, pipeline, retrieval

from spans import Patches, Tracer

COMPUTED = (
    "attention.lstm_steps",
    "clustering.pairs",
    "cca.fit_rows",
    "deep.batches",
    "deep.gemm_flops",
    "data.bytes_read",
)

# FVSQ header: magic (4) + version, modality (2) + n_frames, dim (8)
_FVSQ_HEADER_BYTES = 14


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_bytes(counts, result, args, kwargs):
    counts["data.bytes_read"] += _FVSQ_HEADER_BYTES + result.frames.nbytes


def _count_lstm_steps(counts, result, args, kwargs):
    # chunk_selection_for(chunk_maxes, params, c, k) scores the first (n // c) * c
    # base chunks, once forward and once backward
    n_base = _arg(args, kwargs, 0, "chunk_maxes").shape[0]
    c = _arg(args, kwargs, 2, "c")
    counts["attention.lstm_steps"] += 2 * (n_base // c) * c


def _count_kmeans(counts, result, args, kwargs):
    counts["clustering.kmeans.iterations"] += result.iterations_run


def _count_pairs(counts, result, args, kwargs):
    counts["clustering.pairs"] += len(result)


def _count_fit_rows(counts, result, args, kwargs):
    counts["cca.fit_rows"] += _arg(args, kwargs, 0, "x").shape[0]


def _gemm_mnk(net) -> int:
    dims = net.layer_dims
    return sum(a * b for a, b in zip(dims, dims[1:]))


def _count_forward(counts, result, args, kwargs):
    rows = _arg(args, kwargs, 1, "batch").shape[0]
    counts["deep.gemm_flops"] += 2 * rows * _gemm_mnk(_arg(args, kwargs, 0, "net"))


def _count_backward(counts, result, args, kwargs):
    # per layer: input.T @ dz for the weights and dz @ W.T for the input gradient
    rows = _arg(args, kwargs, 2, "d_out").shape[0]
    counts["deep.gemm_flops"] += 4 * rows * _gemm_mnk(_arg(args, kwargs, 0, "net"))


def _count_batch(counts, result, args, kwargs):
    # total_correlation runs once per training minibatch and nowhere else
    counts["deep.batches"] += 1


# (module, function, span name, counter)
TARGETS = (
    (data, "load_sequence", "data.load_sequence", _count_bytes),
    (pipeline, "prepare_dataset", "pipeline.prepare", None),
    (pipeline, "chunk_selection_for", "attention.score", _count_lstm_steps),
    (clustering, "seeded_kmeans", "clustering.kmeans", _count_kmeans),
    (clustering, "expand_pairs", "clustering.expand_pairs", _count_pairs),
    (cca, "fit_cca", "cca.fit_cca", _count_fit_rows),
    (cca, "fit_kcca", "cca.fit_kcca", None),
    (cca, "fit_cluster_cca", "cca.fit_cluster_cca", None),
    (cca, "project", "cca.project", None),
    (cca, "kernel_project", "cca.kernel_project", None),
    (cca, "load_cca_model", "cca.load_cca_model", None),
    (deep, "train_dcca", "deep.train_dcca", None),
    (deep, "train_sdcca", "deep.train_sdcca", None),
    (deep, "branch_forward", "deep.branch_forward", _count_forward),
    (deep, "branch_backward", "deep.branch_backward", _count_backward),
    (deep, "total_correlation", "deep.total_correlation", _count_batch),
    (deep, "corr_gradient", "deep.corr_gradient", None),
    (deep, "embed", "deep.embed", None),
    (retrieval, "build_index", "retrieval.build_index", None),
    (retrieval, "rank", "retrieval.rank", None),
    (retrieval, "load_index", "retrieval.load_index", None),
    (evaluation, "cross_validate", "evaluation.cross_validate", None),
    (evaluation, "average_precision", "evaluation.average_precision", None),
    (evaluation, "precision_recall", "evaluation.precision_recall", None),
    (evaluation, "pr_curve_export", "evaluation.export", None),
    (evaluation, "report_to_json", "evaluation.export", None),
)

# Names that callers bind with `from ... import`; a wrapper that misses one of
# them would read as zero calls instead of failing.
REQUIRED_BINDINGS = (
    "avembed.pipeline.load_sequence",
    "avembed.pipeline.seeded_kmeans",
    "avembed.deep.fit_cca",
    "avembed.deep.expand_pairs",
    "avembed.cca.expand_pairs",
    "avembed.evaluation.rank",
    "avembed.evaluation.build_index",
)


def install(patches: Patches, tracer: Tracer) -> list[str]:
    """Wrap every target; returns the missing required bindings (empty when covered)."""
    bound: set[str] = set()
    for module, attr, span, counter in TARGETS:
        bound.update(patches.replace(module, attr, tracer.wrapper(span, counter)))
    return [name for name in REQUIRED_BINDINGS if name not in bound]


# every span reports inclusive time, except cross_validate, which reports only self time
_TIMED = tuple(dict.fromkeys(span for _, _, span, _ in TARGETS if span != "evaluation.cross_validate"))
_CALLED = (
    "attention.score", "cca.fit_cca", "data.load_sequence", "retrieval.build_index",
    "retrieval.rank",
)


def layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    totals = tracer.totals()

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    out: dict[str, tuple[float, str]] = {}
    for name in _CALLED:
        out[f"{name}.calls"] = (int(get(name, "calls")), "count")
    for name in _TIMED:
        out[f"{name}.s"] = (get(name, "s"), "s")
    out["deep.train.self_s"] = (get("deep.train_dcca", "self_s") + get("deep.train_sdcca", "self_s"), "s")
    out["pipeline.prepare.self_s"] = (get("pipeline.prepare", "self_s"), "s")
    out["evaluation.cross_validate.self_s"] = (get("evaluation.cross_validate", "self_s"), "s")
    out["clustering.kmeans.iterations"] = (int(tracer.counts["clustering.kmeans.iterations"]), "count")
    for name in COMPUTED:
        unit = {"deep.gemm_flops": "flop", "data.bytes_read": "B"}.get(name, "count")
        out[name] = (int(tracer.counts[name]), unit)
    top = tracer.top_level_s()
    out["cli.self_s"] = (traced_wall_s - top, "s")
    out["trace.coverage"] = (top / traced_wall_s, "ratio")
    out["trace.overhead"] = (traced_wall_s - untraced_wall_s, "s")
    return out
