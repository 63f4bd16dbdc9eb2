"""Compare two checkouts on the benchmark and write the record as JSON.

    python3 tools/bench_record.py --parent DIR --out BENCH_<n>.json
        --seed-base N --held-out-seed M [--change DIR]

Each side runs the command of the change's ``BENCHMARK.json``
(``python3 bench/run.py``) from its own root, so it imports nfce from its
own ``src/``.  Both sides must be git checkouts with no uncommitted change
to a tracked file, so that the commit each records names the tree it
measured.  ``--parent`` is a checkout of the parent commit (for example
``git clone`` of the repository, then ``git checkout <parent>``);
``--change`` defaults to this checkout.

Every workload of ``BENCHMARK.json`` runs for its ``run_seconds``, in 10
pairs: pair i runs seed ``seed-base + i`` on both sides with ``--trace 0``,
the parent first when i is even and the change first when it is odd.  The
record holds, per end-to-end metric and side, every value, the median, the
quartiles (``statistics.quantiles``, inclusive method) and the number of
pairs that side won, ties counting for neither; also the failed-run
counts, one more pair at ``--held-out-seed``, and one traced run
(``--trace 1 --seed 1``) per side with its per-layer metrics.  ``commit``
is each side's ``git rev-parse HEAD``; ``env`` is the environment block
``bench/run.py`` prints, from each side's first run.  A benchmark process
that exits nonzero or prints no result stops the recording.  Last, each
side runs the tier-1 test command of the change's ``ROADMAP.md`` once from
its own root, and ``tier1`` records its wall time, exit code and pytest's
summary line.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
PAIRS = 10
TRACE_SEED = 1


def checkout_commit(root: str) -> str:
    """HEAD of the git checkout at ``root``, which must have no uncommitted
    change to a tracked file."""
    def git(*args):
        return subprocess.run(["git", "-C", root, *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        commit = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError) as exc:
        raise RuntimeError(f"{root} is not a git checkout: {exc}") from None
    if dirty:
        raise RuntimeError(f"{root} has uncommitted changes, so {commit} "
                           f"would not name the tree measured:\n{dirty}")
    return commit


def tier1_command(root: str) -> str:
    """The tier-1 test command named on the ``**Tier-1 verify:**`` line of
    ``root``'s ROADMAP.md."""
    with open(os.path.join(root, "ROADMAP.md")) as fh:
        found = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", fh.read())
    if found is None:
        raise RuntimeError(f"{root}/ROADMAP.md names no tier-1 command")
    return found.group(1)


def run_tier1(root: str, command: str) -> dict:
    """Run the shell ``command`` once from ``root``: its wall time, exit code
    and last line of output (pytest's summary)."""
    t0 = time.perf_counter()
    done = subprocess.run(command, shell=True, cwd=root, capture_output=True,
                          text=True, check=False)
    seconds = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    return {"seconds": seconds, "returncode": done.returncode,
            "summary": lines[-1] if lines else ""}


def run_bench(command, root: str, workload: str, seed: int, seconds: float,
              trace: int) -> tuple[dict, dict]:
    """One benchmark process: (env block, final JSON result)."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
    if done.returncode != 0 or env is None or not lines:
        raise RuntimeError(f"{root}: {' '.join(argv)} exited {done.returncode}:\n"
                           f"{done.stdout}{done.stderr}")
    return env, json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    """Median and quartiles of one side's runs."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def metric_values(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()}


def compare(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: each side's summary and wins, the median gap and the
    parent's interquartile range."""
    out = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        values = {side: [p[side][name] for p in pairs] for side in SIDES}
        wins = {side: 0 for side in SIDES}
        for p, c in zip(values["parent"], values["change"]):
            if sign * (c - p) > 0:
                wins["change"] += 1
            elif sign * (p - c) > 0:
                wins["parent"] += 1
        sides = {side: {**summary(values[side]), "wins": wins[side]}
                 for side in SIDES}
        parent_med = sides["parent"]["median"]
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            **sides,
            "median_gap": sides["change"]["median"] - parent_med,
            "relative_change": (sides["change"]["median"] - parent_med) / parent_med,
            "parent_iqr": sides["parent"]["q3"] - sides["parent"]["q1"],
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", default=ROOT, help="checkout of the change")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--seed-base", type=int, required=True,
                   help="pair i runs seed seed-base + i")
    p.add_argument("--held-out-seed", type=int, required=True,
                   help="seed of one more pair, outside the ten")
    args = p.parse_args(argv)
    if 0 <= args.held_out_seed - args.seed_base < PAIRS:
        p.error("--held-out-seed must lie outside the ten paired seeds")

    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    commits = {side: checkout_commit(roots[side]) for side in SIDES}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    tier1 = tier1_command(roots["change"])

    record = {"command": spec["command"], "seconds": seconds, "pairs": PAIRS,
              "commit": commits, "env": {}, "workloads": {}}

    def run(side, workload, seed, trace):
        env, result = run_bench(spec["command"], roots[side], workload, seed,
                                seconds if not trace else 0.0, trace)
        record["env"].setdefault(side, env)
        return result

    for workload in (w["name"] for w in spec["workloads"]):
        pairs, failed = [], {side: [] for side in SIDES}
        seeds = [args.seed_base + i for i in range(PAIRS)]
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                result = run(side, workload, seed, 0)
                pair[side] = metric_values(result)
                failed[side].append(result["failed"])
                print(f"{workload} seed {seed} {side}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in pair[side].items()
                                 if v is not None), file=sys.stderr)
            pairs.append(pair)
        entry = {"seeds": seeds,
                 "first": [SIDES[i % 2] for i in range(len(seeds))],
                 "end_to_end": compare(pairs, spec["end_to_end"]),
                 "failed": failed,
                 "held_out": {"seed": args.held_out_seed, **{
                     side: metric_values(run(side, workload, args.held_out_seed, 0))
                     for side in SIDES}}}
        traced = {}
        for side in SIDES:
            result = run(side, workload, TRACE_SEED, 1)
            traced[side] = {"correct": result["correct"], "failed": result["failed"],
                            "metrics": metric_values(result)}
        entry["traced"] = {"seed": TRACE_SEED, **traced}
        record["workloads"][workload] = entry

    record["tier1"] = {"command": tier1, **{
        side: run_tier1(roots[side], tier1) for side in SIDES}}

    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
