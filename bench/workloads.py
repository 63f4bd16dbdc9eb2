"""The benchmark's three workloads.

Each workload draws its inputs from the benchmark seed, warms up on a fixed
input that no seed produces, and runs one closed-loop step at a time.  A step
returns one :class:`Run` per unit of work (a ``run_trial`` call, or a
``distributed_small`` scenario), already checked: ``Run.error`` says why a
run failed, and is None for a run that passed every check.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from nfce import cli, estimator, frontend, harness, model, runtime

from layers import corr_identity_holds, correlations_per_iteration

WARMUP_SEED = 0x5EED  # warm-up input, shared by every benchmark seed


def derive_seed(seed: int, *keys: int) -> int:
    """Master seed of one workload input, from the benchmark seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


@dataclass
class Run:
    step: int
    algorithm: str
    ms: float  # RunRecord.runtime_ms, or the run_dps call in distributed_small
    corr_count: int
    n_paths: int
    n_paths_est: int
    nmse_db: float | None = None
    dist_ms: float | None = None  # run_distributed call, distributed_small only
    output: str = ""  # every result field but wall time, to compare passes
    error: str | None = None


def failed(step: int, algorithm: str, exc: BaseException) -> Run:
    return Run(step, algorithm, math.inf, 0, 0, 0,
               error=f"raised {type(exc).__name__}: {exc}")


def harness_run(step: int, algorithm: str, n_paths: int, n_paths_est: int,
                nmse_db: float, corr_count: int, fallback: bool,
                runtime_ms: float, per_iter: int, n_subcarriers: int,
                output: str) -> Run:
    """A checked run from one RunRecord (or one sweep CSV row)."""
    run = Run(step, algorithm, runtime_ms, corr_count, n_paths, n_paths_est,
              nmse_db=nmse_db, output=output)
    if not math.isfinite(nmse_db):
        run.error = f"non-finite nmse_db {nmse_db}"
    elif algorithm == "dps" and not corr_identity_holds(
            corr_count, n_paths_est, "fallback" if fallback else None,
            per_iter, n_subcarriers):
        run.error = (f"corr_count {corr_count} breaks the a10 identity "
                     f"(L_hat={n_paths_est}, fallback={fallback})")
    return run


class FullscaleDps:
    """Reference architecture 1024/256/1024, 4 harness-drawn paths, 10 dB."""

    name = "fullscale_dps"
    algorithms = ("dps", "ls")
    fixed_steps = 3
    step_algorithm = None

    def __init__(self, seed: int, out_dir):
        self.cfg = harness.SimConfig(
            n_antennas=1024, n_subarrays=256, n_subcarriers=1024, n_paths=4,
            snr_db=(10.0,), algorithms=self.algorithms, timing=True,
            seed=derive_seed(seed, 0))
        self.per_iter = correlations_per_iteration(self.cfg.geometry(),
                                                   self.cfg.grid())

    def warm_up(self) -> None:
        cfg = replace(self.cfg, seed=WARMUP_SEED)
        for alg in self.algorithms:
            harness.run_trial(cfg, 0, 10.0, alg)

    def step(self, i: int) -> list[Run]:
        """Trial i under each algorithm, so every step has the same mix."""
        runs = []
        for alg in self.algorithms:
            try:
                rec = harness.run_trial(self.cfg, i, 10.0, alg)
            except Exception as exc:  # a failed unit is counted, not fatal
                runs.append(failed(i, alg, exc))
                continue
            runs.append(harness_run(
                i, alg, rec.n_paths, rec.n_paths_est, rec.nmse_db, rec.corr_count,
                rec.fallback, rec.runtime_ms, self.per_iter,
                self.cfg.n_subcarriers, replace(rec, runtime_ms=0.0).csv_row()))
        return runs


class DefaultSweep:
    """``nfce sweep`` at the SimConfig defaults, one trial per step."""

    name = "default_sweep"
    algorithms = ("dps", "ls", "omp")
    snr_db = "0,10,20"
    fixed_steps = 3
    step_algorithm = None

    def __init__(self, seed: int, out_dir):
        self.seed = seed
        self.csv_path = os.path.join(out_dir, f"sweep-{os.getpid()}.csv")
        cfg = harness.SimConfig()
        self.per_iter = correlations_per_iteration(cfg.geometry(), cfg.grid())
        self.n_subcarriers = cfg.n_subcarriers

    def _sweep(self, seed: int, snr_db: str):
        argv = ["sweep", "--snr-db", snr_db, "--algorithms", ",".join(self.algorithms),
                "--timing", "--trials", "1", "--seed", str(seed),
                "--out", self.csv_path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        rows = []
        if code == 0:
            with open(self.csv_path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            os.remove(self.csv_path)
        return code, rows, err.getvalue()

    def warm_up(self) -> None:
        code, _, err = self._sweep(WARMUP_SEED, "10")
        if code != 0:
            raise RuntimeError(f"warm-up sweep exited {code}: {err.strip()}")

    def step(self, i: int) -> list[Run]:
        expected = [(snr, alg) for snr in self.snr_db.split(",")
                    for alg in self.algorithms]
        try:
            code, rows, err = self._sweep(derive_seed(self.seed, i), self.snr_db)
        except Exception as exc:  # a failed unit is counted, not fatal
            return [failed(i, alg, exc) for _, alg in expected]
        if code != 0 or len(rows) != len(expected):
            exc = RuntimeError(f"sweep exited {code} with {len(rows)} rows: "
                               f"{err.strip()}")
            return [failed(i, alg, exc) for _, alg in expected]
        runs = []
        for row in rows:
            output = ",".join(v for k, v in row.items() if k != "runtime_ms")
            runs.append(harness_run(
                i, row["algorithm"], int(row["L"]), int(row["L_hat"]),
                float(row["nmse_db"]), int(row["corr_count"]),
                row["fallback"] == "1", float(row["runtime_ms"]),
                self.per_iter, self.n_subcarriers, output))
        # the per-algorithm means the CLI prints must agree with its CSV
        for alg in self.algorithms:
            mean = float(np.mean([r.nmse_db for r in runs if r.algorithm == alg]))
            line = (f"# {alg}: mean nmse_db {mean:.2f} over "
                    f"{len(expected) // len(self.algorithms)} runs")
            if line not in err.splitlines():
                for r in runs:
                    if r.algorithm == alg and r.error is None:
                        r.error = f"stderr lacks {line!r}"
        return runs


class DistributedSmall:
    """a12's config: 64/16/128, 1-3 paths, 15 dB, max_paths=8."""

    name = "distributed_small"
    algorithms = ("dps", "dist")
    # ten scenarios a step, so that each step holds a mix of stop reasons
    scenarios_per_step = 10
    fixed_steps = 15
    step_algorithm = "dps"  # the scenario's match_paths call scores run_dps

    def __init__(self, seed: int, out_dir):
        self.seed = seed

    def _scenario(self, step: int, seed: int, n_paths: int) -> Run:
        cfg = harness.SimConfig(n_antennas=64, n_subarrays=16, n_subcarriers=128,
                                n_paths=n_paths, seed=seed, snr_db=(15.0,))
        geom, grid = cfg.geometry(), cfg.grid()
        paths = harness.draw_paths(cfg, harness.trial_rng(seed, 0, 0), grid)
        H = model.synthesize_channel(paths, geom, grid)
        W = frontend.random_phase_combiner(geom, harness.trial_rng(seed, 0, 1))
        sig = float(np.mean(np.abs(frontend.observe(H, W, 1.0, 0.0)) ** 2))
        nv = sig / 10 ** 1.5
        Y = frontend.observe(H, W, 1.0, nv, rng=harness.trial_rng(seed, 0, 2))
        rule = estimator.StoppingRule(noise_var=nv, p_fa=1e-3, max_paths=8)

        t0 = time.perf_counter()
        mono = estimator.run_dps(Y, W, geom, grid, rule)
        t1 = time.perf_counter()
        dist = runtime.run_distributed(Y, W, geom, grid, rule, trace=True)
        t2 = time.perf_counter()
        harness.match_paths(mono.paths, paths, grid)

        run = Run(step, "dps", (t1 - t0) * 1e3, mono.corr_total, len(paths),
                  mono.n_paths, dist_ms=(t2 - t1) * 1e3,
                  output=repr([(p.theta, p.dist_m, p.range_m, p.gain)
                               for p in mono.paths] + [mono.stop_reason]))
        run.error = distributed_mismatch(mono, dist, grid.n_subcarriers)
        if run.error is None and not corr_identity_holds(
                mono.corr_total, mono.n_paths, mono.stop_reason,
                correlations_per_iteration(geom, grid), grid.n_subcarriers):
            run.error = f"corr_total {mono.corr_total} breaks the a10 identity"
        return run

    def warm_up(self) -> None:
        self._scenario(-1, WARMUP_SEED, 2)

    def step(self, i: int) -> list[Run]:
        runs = []
        for j in range(i * self.scenarios_per_step, (i + 1) * self.scenarios_per_step):
            try:
                runs.append(self._scenario(i, derive_seed(self.seed, j), 1 + j % 3))
            except Exception as exc:  # a failed unit is counted, not fatal
                runs.append(failed(i, "dps", exc))
        return runs


def distributed_mismatch(mono, dist, n_subcarriers: int) -> str | None:
    """First field a12 compares that differs, or a payload of length >= M."""
    for field in ("n_paths", "fallback", "rejected", "stop_reason",
                  "corr_per_iter", "corr_total"):
        if getattr(dist, field) != getattr(mono, field):
            return f"run_distributed differs from run_dps in {field}"
    for i, (ep, mp) in enumerate(zip(dist.paths, mono.paths)):
        for field in ("theta", "dist_m", "range_m", "gain"):
            if getattr(ep, field) != getattr(mp, field):
                return f"run_distributed differs in path {i} {field}"
        if not (np.array_equal(ep.lpu_gains, mp.lpu_gains)
                and np.array_equal(ep.track.taus_unwrapped, mp.track.taus_unwrapped)
                and np.array_equal(ep.track.kappas, mp.track.kappas)):
            return f"run_distributed differs in path {i} gains or track"
    for msg in dist.trace:
        if len(msg.payload) >= n_subcarriers:
            return f"{msg.kind} payload of {len(msg.payload)} >= M"
    return None


WORKLOADS = {w.name: w for w in (FullscaleDps, DefaultSweep, DistributedSmall)}
