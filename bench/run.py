"""nfce benchmark: one closed-loop client, one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nfce is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See bench/README.md.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, before nfce loads

import os  # noqa: E402

# pinned before numpy loads; recorded in every result
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_SAMPLES = 3  # this process plus two probe processes

# (name, unit, better) of the metrics every workload reports with --trace 0
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("runs_per_s", "1/s", "higher"),
    ("dps_us_per_corr", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the set-up time and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; failed runs enter as +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment(args) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                return next(ln.split()[0] for ln in fh if ln.rstrip().endswith(ref))
    except (OSError, StopIteration):
        return "unknown"


def probe_setup(args) -> float:
    """Set-up time of a fresh process, measured by that process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def measure(workload, seconds: float, min_steps: int, tracer=None):
    """Closed loop: steps back to back until ``seconds`` and ``min_steps``
    are both reached (exactly ``min_steps`` when ``seconds`` is 0).

    Returns the runs, the total wall time and each step's wall time.
    """
    runs, step_seconds = [], []
    t0 = time.perf_counter()
    while len(step_seconds) < min_steps or time.perf_counter() - t0 < seconds:
        start = time.perf_counter()
        if tracer is None:
            runs.extend(workload.step(len(step_seconds)))
        else:
            attrs = {"algorithm": workload.step_algorithm} if workload.step_algorithm else {}
            with tracer.span("bench.step", unit=True, **attrs):
                runs.extend(workload.step(len(step_seconds)))
        step_seconds.append(time.perf_counter() - start)
    return runs, time.perf_counter() - t0, step_seconds


def end_to_end(workload, runs, wall, step_seconds, setup_samples):
    """Gated metrics, plus report lines for every metric of the issue table."""
    ok = [r for r in runs if r.error is None]
    passed = [0] * len(step_seconds)
    for r in ok:
        passed[r.step] += 1
    fixed = [r for r in ok if r.step < workload.fixed_steps]

    def latencies(alg, field="ms"):
        return [getattr(r, field) if r.error is None else math.inf
                for r in runs if r.algorithm == alg]

    dps = latencies("dps")
    dps_ok = [r for r in ok if r.algorithm == "dps"]
    # a failed run counts as missing every limit
    us_per_corr = (sum(r.ms for r in dps_ok) * 1e3 / sum(r.corr_count for r in dps_ok)
                   if dps_ok and len(dps_ok) == len(dps) else math.inf)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        # the median step resists both slow outlier steps and the seed's
        # share of cheap ones (e.g. a DPS run that stops at 2 paths)
        "runs_per_s": statistics.median(n / t for n, t in zip(passed, step_seconds)),
        "dps_us_per_corr": us_per_corr,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {name: unit for name, unit, _ in END_TO_END}
    lines = [f"metric {k} = {v:.6g} {units[k]}" for k, v in metrics.items()]
    lines[0] += f"  (median of {len(setup_samples)}: " + ", ".join(
        f"{s:.3f}" for s in setup_samples) + ")"
    lines[1] += (f"  (median of {len(step_seconds)} steps; {len(ok)} runs in "
                 f"{wall:.2f} s is {len(ok) / wall:.4g}/s)")
    lines[2] += f"  (total over {len(dps)} dps runs)"

    def add(name, value, unit, note=""):
        lines.append(f"metric {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))

    add("dps_ms_p50", percentile(dps, 0.5), "ms", f"n={len(dps)}")
    if len(dps) >= 100:
        add("dps_ms_p90", percentile(dps, 0.9), "ms", f"n={len(dps)}")
    else:
        lines.append(f"metric dps_ms_p90 not reported: n={len(dps)} < 100")
    for alg in ("ls", "omp"):
        if alg in workload.algorithms:
            xs = latencies(alg)
            add(f"{alg}_ms_p50", percentile(xs, 0.5), "ms", f"n={len(xs)}")
    if "dist" in workload.algorithms:
        xs = latencies("dps", "dist_ms")
        add("dist_ms_p50", percentile(xs, 0.5), "ms", f"n={len(xs)}")
    for alg in ("dps", "ls", "omp"):
        xs = [r.nmse_db for r in fixed if r.algorithm == alg and r.nmse_db is not None]
        if xs:
            add(f"{alg}_nmse_db", statistics.fmean(xs), "dB",
                f"mean of {len(xs)} runs of the first {workload.fixed_steps} steps")
    fixed_dps = [r for r in fixed if r.algorithm == "dps"]
    if fixed_dps:
        note = f"mean of {len(fixed_dps)} runs of the first {workload.fixed_steps} steps"
        add("dps_path_count_err",
            statistics.fmean(abs(r.n_paths_est - r.n_paths) for r in fixed_dps),
            "paths", note)
        add("dps_corr_per_run", statistics.fmean(r.corr_count for r in fixed_dps),
            "correlations", note)
    add("failed_ratio", (len(runs) - len(ok)) / len(runs), "-",
        f"{len(runs) - len(ok)} of {len(runs)}")
    return metrics, lines


def traced_run(workload, out_prefix):
    """Untraced then traced pass over the first ``fixed_steps`` steps."""
    import layers
    from spans import Tracer, traced_attributes

    plain, plain_wall, _ = measure(workload, 0.0, workload.fixed_steps)
    tracer = Tracer()
    with tracer.installed(layers.MODULES, layers.TARGETS):
        traced, traced_wall, _ = measure(workload, 0.0, workload.fixed_steps, tracer)
    leftover = traced_attributes(layers.MODULES)
    tracer.dump(out_prefix + "-spans.jsonl")

    measured = layers.layer_metrics(tracer.spans)
    measured["bench.trace_overhead_ratio"] = (traced_wall - plain_wall) / plain_wall
    metrics = {name: measured[name] for name, _, _ in layers.PER_LAYER}
    violations = layers.identity_violations(tracer.spans)
    changed = sum(a.output != b.output for a, b in zip(plain, traced))
    runs = plain + traced
    failures = sum(r.error is not None for r in runs) + violations
    lines = [
        f"traced {workload.fixed_steps} steps: untraced {plain_wall:.3f} s, "
        f"traced {traced_wall:.3f} s, {len(tracer.spans)} spans",
        f"check: traced run_dps calls breaking the a10 identity: {violations}",
        f"check: runs whose output changed under tracing: {changed}",
        f"check: wrappers left installed: {leftover or 'none'}",
    ]
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    lines += [f"metric {k} = {v:.6g} {units[k]}" for k, v in metrics.items()]
    correct = failures == 0 and changed == 0 and not leftover and len(plain) == len(traced)
    return metrics, runs, failures, correct, lines


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "nfce", "__init__.py")):
        print(f"error: no nfce sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    args = parse_args(argv)
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    workload.warm_up()
    setup_s = time.perf_counter() - T_START
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    env = environment(args)
    out_prefix = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    print(f"# nfce benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))
    if args.trace:
        import layers

        metrics, runs, failures, correct, lines = traced_run(workload, out_prefix)
        lines.insert(0, f"set-up {setup_s:.3f} s (this process)")
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        setup_samples = [setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        runs, wall, step_seconds = measure(workload, args.seconds, workload.fixed_steps)
        metrics, lines = end_to_end(workload, runs, wall, step_seconds, setup_samples)
        failures = sum(r.error is not None for r in runs)
        correct = failures == 0
        units = {name: unit for name, unit, _ in END_TO_END}
    for r in runs:
        if r.error is not None:
            lines.append(f"FAILED step {r.step} {r.algorithm}: {r.error}")
    print("\n".join(lines))

    result = {
        "correct": correct,
        "attempted": len(runs),
        "failed": failures,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    with open(out_prefix + ".json", "w") as fh:
        json.dump({"env": env, "report": lines, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
