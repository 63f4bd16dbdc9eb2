"""Which nfce functions the traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<stage>``.  Estimator kernels are traced whichever
function calls them (``run_dps``, ``run_distributed`` or the polar-OMP
baseline), so a caller's ``self_s`` is its time outside every traced kernel.
``nfce.bounds`` and ``nfce.planar`` are closed-form and take microseconds;
they carry no spans.
"""

from __future__ import annotations

from nfce import bounds, cli, estimator, frontend, harness, model, planar, runtime

from spans import Span, self_times

# every namespace a traced function may be looked up in
MODULES = (model, frontend, estimator, runtime, harness, cli, bounds, planar)


def correlations_per_iteration(geom, grid) -> int:
    """a10's per-iteration budget M + (K-1)(2 M_s + 1)."""
    return grid.n_subcarriers + (geom.n_subarrays - 1) * (
        2 * estimator.max_hop(geom, grid) + 1
    )


def corr_identity_holds(corr_total: int, n_paths: int, stop_reason: str | None,
                        per_iter: int, n_subcarriers: int) -> bool:
    """a10's correlation identity for one DPS run.

    Threshold and max_paths stops spend ``per_iter * L_hat + M``; fallback and
    rejected stops spend ``per_iter * (L_hat + 1)``.  With ``stop_reason``
    unknown (a harness ``RunRecord`` does not carry it) either form passes.
    """
    after_pass = per_iter * n_paths + n_subcarriers
    extra_pass = per_iter * (n_paths + 1)
    if stop_reason in ("threshold", "max_paths"):
        return corr_total == after_pass
    if stop_reason in ("fallback", "rejected"):
        return corr_total == extra_pass
    return corr_total in (after_pass, extra_pass)


def _dps_result(args, res):
    geom, grid = args[2], args[3]
    return {
        "iterations": len(res.corr_per_iter),
        "correlations": res.corr_total,
        "stop": res.stop_reason,
        "identity_ok": corr_identity_holds(
            res.corr_total, res.n_paths, res.stop_reason,
            correlations_per_iteration(geom, grid), grid.n_subcarriers),
    }


def _distributed_result(args, res):
    lengths = [len(m.payload) for m in res.trace]
    return {"messages": len(lengths), "payload_scalars": sum(lengths),
            "max_payload_len": max(lengths, default=0)}


def _trial_algorithm(args, kwargs):
    return {"algorithm": kwargs.get("algorithm", args[3] if len(args) > 3 else None)}


TARGETS = (
    (model, "synthesize_channel", "model.synthesize_channel", {}),
    (model, "steering_vector", "model.steering_vector", {}),
    (model, "subarray_centers", "model.subarray_centers", {}),
    (frontend, "observe", "frontend.observe", {}),
    (frontend, "noise_var_for_snr", "frontend.noise_var_for_snr", {}),
    (frontend, "combining_matrix", "frontend.combining_matrix", {}),
    (estimator, "run_dps", "estimator.run_dps", {"after": _dps_result}),
    (estimator, "ml_delay_detect", "estimator.detect", {}),
    (estimator, "extrapolate_step", "estimator.extrapolate", {}),
    (estimator, "window_scores", "estimator.window_scores", {}),
    (estimator, "decouple_profile", "estimator.decouple", {}),
    (estimator, "gain_column", "estimator.gain_column", {}),
    (estimator, "estimate_gain_lpu", "estimator.estimate_gain_lpu", {}),
    (estimator, "residual_update", "estimator.residual_update", {}),
    (estimator, "reconstruct_channel", "estimator.reconstruct", {}),
    (runtime, "run_distributed", "runtime.run_distributed",
     {"after": _distributed_result}),
    (harness, "run_trial", "harness.run_trial",
     {"unit": True, "before": _trial_algorithm}),
    (harness, "draw_paths", "harness.draw_paths", {}),
    (harness, "polar_omp_fallback", "harness.polar_omp_fallback",
     {"after": lambda args, res: {"iterations": len(res[1])}}),
    (harness, "ls_baseline", "harness.ls_baseline", {}),
    (harness, "nmse_db", "harness.nmse_db", {}),
    (harness, "match_paths", "harness.match_paths",
     {"after": lambda args, res: {"matched": len(res), "extracted": len(args[0])}}),
    (cli, "main", "cli.main", {}),
)

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("model.synthesize_channel.s", "s", "lower"),
    ("model.synthesize_channel.calls", "count", "lower"),
    ("model.steering_vector.calls", "count", "lower"),
    ("model.subarray_centers.calls", "count", "lower"),
    ("frontend.observe.s", "s", "lower"),
    ("frontend.noise_var_for_snr.s", "s", "lower"),
    ("frontend.combining_matrix.s", "s", "lower"),
    ("estimator.run_dps.s", "s", "lower"),
    ("estimator.run_dps.self_s", "s", "lower"),
    ("estimator.detect.s", "s", "lower"),
    ("estimator.extrapolate.s", "s", "lower"),
    ("estimator.window_scores.calls", "count", "lower"),
    ("estimator.decouple.s", "s", "lower"),
    ("estimator.gain_fit.s", "s", "lower"),
    ("estimator.gain_column.calls", "count", "lower"),
    ("estimator.reconstruct.s", "s", "lower"),
    ("estimator.iterations", "count", "lower"),
    ("estimator.correlations", "count", "lower"),
    ("estimator.stop.threshold", "count", "higher"),
    ("estimator.stop.max_paths", "count", "lower"),
    ("estimator.stop.fallback", "count", "lower"),
    ("estimator.stop.rejected", "count", "lower"),
    ("estimator.useful_path_ratio", "ratio", "higher"),
    ("runtime.run_distributed.s", "s", "lower"),
    ("runtime.run_distributed.self_s", "s", "lower"),
    ("runtime.messages", "count", "lower"),
    ("runtime.payload_scalars", "count", "lower"),
    ("runtime.max_payload_len", "count", "lower"),
    ("harness.run_trial.s", "s", "lower"),
    ("harness.run_trial.self_s", "s", "lower"),
    ("harness.draw_paths.s", "s", "lower"),
    ("harness.polar_omp_fallback.s", "s", "lower"),
    ("harness.polar_omp_fallback.self_s", "s", "lower"),
    ("harness.polar_omp_fallback.steering_s", "s", "lower"),
    ("harness.omp.iterations", "count", "lower"),
    ("harness.ls_baseline.s", "s", "lower"),
    ("harness.nmse_db.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
)

_GAIN_FIT = ("estimator.gain_column", "estimator.estimate_gain_lpu",
             "estimator.residual_update")
_SELF = ("estimator.run_dps", "runtime.run_distributed", "harness.run_trial",
         "harness.polar_omp_fallback", "cli.main")
_COUNTED = ("model.synthesize_channel", "model.steering_vector",
            "model.subarray_centers", "estimator.window_scores",
            "estimator.gain_column")


def _algorithm_of(spans: list[Span], index: int) -> str | None:
    while index >= 0:
        attrs = spans[index].attrs
        if attrs and "algorithm" in attrs:
            return attrs["algorithm"]
        index = spans[index].parent
    return None


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics (every name in PER_LAYER but the overhead ratio)."""
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, self_s in zip(spans, self_times(spans)):
        busy[s.name] = busy.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + self_s
        calls[s.name] = calls.get(s.name, 0) + 1

    out: dict = {}
    for name, unit, _ in PER_LAYER:
        if unit == "s" and name.endswith(".s"):
            out[name] = busy.get(name[:-2], 0.0)
    out["estimator.gain_fit.s"] = sum(busy.get(n, 0.0) for n in _GAIN_FIT)
    for name in _SELF:
        out[name + ".self_s"] = own.get(name, 0.0)
    for name in _COUNTED:
        out[name + ".calls"] = calls.get(name, 0)

    def attr_values(span_name, key):
        # a call that raised has no result attributes
        return [s.attrs[key] for s in spans if s.name == span_name and s.attrs]

    out["estimator.iterations"] = sum(attr_values("estimator.run_dps", "iterations"))
    out["estimator.correlations"] = sum(attr_values("estimator.run_dps", "correlations"))
    stops = attr_values("estimator.run_dps", "stop")
    for reason in ("threshold", "max_paths", "fallback", "rejected"):
        out[f"estimator.stop.{reason}"] = stops.count(reason)

    matched = extracted = 0
    for i, s in enumerate(spans):
        if (s.name == "harness.match_paths" and s.attrs
                and _algorithm_of(spans, i) == "dps"):
            matched += s.attrs["matched"]
            extracted += s.attrs["extracted"]
    out["estimator.useful_path_ratio"] = matched / extracted if extracted else 0.0

    out["runtime.messages"] = sum(attr_values("runtime.run_distributed", "messages"))
    out["runtime.payload_scalars"] = sum(
        attr_values("runtime.run_distributed", "payload_scalars"))
    out["runtime.max_payload_len"] = max(
        attr_values("runtime.run_distributed", "max_payload_len"), default=0)
    out["harness.omp.iterations"] = sum(
        attr_values("harness.polar_omp_fallback", "iterations"))
    out["harness.polar_omp_fallback.steering_s"] = sum(
        s.duration for s in spans
        if s.name == "model.steering_vector" and s.parent >= 0
        and spans[s.parent].name == "harness.polar_omp_fallback")
    return out


def identity_violations(spans: list[Span]) -> int:
    """Traced run_dps calls that broke a10's correlation identity."""
    return sum(1 for s in spans
               if s.name == "estimator.run_dps" and s.attrs
               and not s.attrs["identity_ok"])
