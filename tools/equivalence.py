"""Check that two versions of nfce give the same estimates on a fixed scenario set.

    PYTHONPATH=src python3 tools/equivalence.py dump OUT.json [--limit N]
    python3 tools/equivalence.py compare A.json B.json

``dump`` runs ``run_dps``, ``polar_omp_fallback`` and ``reconstruct_channel``
on 153 scenarios and writes what they return as JSON, together with each
scenario's true path count and a digest of the synthesized channel H and of
the observation Y the estimators read: each one's Frobenius norm and its
projection on one fixed random matrix.  Each estimate is scored densely,
``nmse_db`` of the reconstructed channel against ``synthesize_channel`` of
the scenario's paths, an oracle independent of the harness's path-space
score.  The scenarios are
seeds 1000-1039 at the ``SimConfig`` defaults at 0, 10 and 20 dB, then seeds
0-29 at the 64/16/128 config of acceptance test a12, then seeds 3-5 at the
full 1024/256/1024 scale with 4 paths at 10 dB.  ``--limit N`` keeps the
first N, so a small limit skips the slow full-scale ones.  To dump another
checkout, point PYTHONPATH at its ``src``.  The tool pins BLAS to one thread.

For each a12 scenario the dump also holds ``run_distributed(trace=True)``'s
message log: per message its iteration, kind, sender and payload, each
payload value written exactly with ``float.hex`` (a complex one as its real
and imaginary parts); the other scenarios record no log.

``compare`` prints, per side and per scenario group (the defaults at each
SNR, a12, full scale), the mean and median ``nmse_db`` of DPS and of polar
OMP, their mean |L_hat - L| and DPS's stop-reason counts.  It then prints
every discrete mismatch (true path count, stop reason, path count,
correlation count, fallback, rejected count, delay-hop track, each DPS
path's ``clamped`` and ``refined`` flags, and the message log) and the largest
differences of theta/d/r, per-LPU gains, nmse_db and, relative, of the
channel's and the observation's norm and projection; the observation must
agree exactly.  Records whose keys or
array shapes differ (dumps written by different versions of this tool) are
reported as different dump formats.  Paths whose range exceeds 1e4 m are
unphysical; their gains, and the nmse_db of scenarios that hold one, are
counted and left out of the tolerances.  Exit status: 1 on a discrete
mismatch or a format difference, 2 when only a difference exceeds its
tolerance, 0 when the dumps agree.  ``compare`` runs no estimator and
needs only numpy, not nfce.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# pinned before numpy loads: at full scale the last bits of the gains depend
# on the BLAS thread count, so two dumps compared must share one count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

# nfce is imported only by the functions that run it, on the ``dump`` path,
# so ``compare`` reads two dumps without the package on the path

UNPHYSICAL_RANGE_M = 1e4
TOLERANCES = {"theta/d/r": 0.0, "lpu gain": 1e-10, "nmse_db": 1e-9, "channel (relative)": 1e-12,
              "observation (relative)": 0.0}
# the dumped array digests and the quantity each one's difference is reported as
_DIGESTS = (("channel", "channel (relative)"), ("observation", "observation (relative)"))
PROJECTION_SEED = 20261018
_DISCRETE = {
    "dps": ("stop_reason", "n_paths", "corr_total", "fallback", "rejected", "kappas",
            "clamped", "refined", "messages"),
    "omp": ("n_paths", "corr"),
}
_NUMERIC = ("params", "gains_re", "gains_im", "nmse_db")


def a12_scenario(seed: int):
    """(cfg, H, W, Y, rule) of acceptance test a12's scenario ``seed``.

    64/16/128, 1 + seed % 3 paths, 15 dB relative to the noiseless
    observation's power, unit power, P_fa 1e-3 and at most 8 paths.
    """
    from nfce.estimator import StoppingRule
    from nfce.frontend import observe, random_phase_combiner
    from nfce.harness import SimConfig, draw_paths, trial_rng
    from nfce.model import synthesize_channel

    cfg = SimConfig(n_antennas=64, n_subarrays=16, n_subcarriers=128,
                    n_paths=1 + seed % 3, seed=seed, snr_db=(15.0,))
    geom, grid = cfg.geometry(), cfg.grid()
    H = synthesize_channel(draw_paths(cfg, trial_rng(seed, 0, 0), grid), geom, grid)
    W = random_phase_combiner(geom, trial_rng(seed, 0, 1))
    nv = float(np.mean(np.abs(observe(H, W, 1.0, 0.0)) ** 2)) / 10 ** 1.5
    Y = observe(H, W, 1.0, nv, rng=trial_rng(seed, 0, 2))
    return cfg, H, W, Y, StoppingRule(noise_var=nv, p_fa=1e-3, max_paths=8)


def harness_scenario(cfg: SimConfig, snr_db: float):
    """(cfg, H, W, Y, rule) of run_trial's trial 0 of ``cfg`` at ``snr_db``."""
    from nfce.estimator import StoppingRule
    from nfce.harness import draw_trial

    from nfce.model import synthesize_channel

    # the paths lead and W, noise_var and Y close the tuple in every version
    # of draw_trial, which gave H itself before it drew in path space
    paths, *_, W, noise_var, Y = draw_trial(cfg, 0, snr_db)
    H = synthesize_channel(paths, cfg.geometry(), cfg.grid())
    return cfg, H, W, Y, StoppingRule(noise_var=noise_var, p_fa=cfg.p_fa,
                                      max_paths=cfg.max_paths)


def scenarios():
    """Yield (name, cfg, H, W, Y, rule) for the fixed scenario set, in order."""
    from nfce.harness import SimConfig

    for seed in range(1000, 1040):
        cfg = SimConfig(seed=seed)
        for snr in (0.0, 10.0, 20.0):
            yield (f"default/seed{seed}/{snr:g}dB",) + harness_scenario(cfg, snr)
    for seed in range(30):
        yield (f"a12/seed{seed}",) + a12_scenario(seed)
    for seed in range(3, 6):
        cfg = SimConfig(n_antennas=1024, n_subarrays=256, n_subcarriers=1024,
                        n_paths=4, seed=seed)
        yield (f"full/seed{seed}/10dB",) + harness_scenario(cfg, 10.0)


def _exact(value) -> str | list[str]:
    """A payload value as ``float.hex``; a complex one as [real, imaginary]."""
    if isinstance(value, complex):
        return [value.real.hex(), value.imag.hex()]
    return float(value).hex()


def message_log(messages) -> list[list]:
    """[iteration, kind, sender, payload] per message, payload values exact."""
    return [[m.iteration, m.kind, m.sender, [_exact(v) for v in m.payload]]
            for m in messages]


def _paths_record(paths, H, geom, grid) -> dict:
    from nfce.estimator import reconstruct_channel
    from nfce.harness import nmse_db

    return {
        "n_paths": len(paths),
        "params": [[p.theta, p.dist_m, p.range_m] for p in paths],
        "gains_re": [np.real(p.lpu_gains).tolist() for p in paths],
        "gains_im": [np.imag(p.lpu_gains).tolist() for p in paths],
        "nmse_db": nmse_db(reconstruct_channel(paths, geom, grid), H),
    }


def channel_record(H: np.ndarray) -> dict:
    """||H||_F and u^H H for one fixed random u of H's shape (H or Y)."""
    rng = np.random.default_rng(PROJECTION_SEED)
    u = rng.standard_normal(H.shape) + 1j * rng.standard_normal(H.shape)
    proj = np.vdot(u, H)
    return {"norm": float(np.linalg.norm(H)), "proj": [proj.real, proj.imag]}


def _channel_difference(a: dict, b: dict) -> float:
    """Largest relative difference of the norm and the projection."""
    pa, pb = complex(*a["proj"]), complex(*b["proj"])
    return max(abs(a["norm"] - b["norm"]) / a["norm"], abs(pa - pb) / abs(pa))


def dump(limit: int | None = None) -> list[dict]:
    from nfce.estimator import run_dps
    from nfce.harness import polar_omp_fallback
    from nfce.runtime import run_distributed

    records = []
    for i, (name, cfg, H, W, Y, rule) in enumerate(scenarios()):
        if limit is not None and i >= limit:
            break
        geom, grid = cfg.geometry(), cfg.grid()
        res = run_dps(Y, W, geom, grid, rule, power=cfg.power)
        dps = _paths_record(res.paths, H, geom, grid)
        dps.update(
            stop_reason=res.stop_reason, corr_total=res.corr_total,
            fallback=res.fallback, rejected=res.rejected,
            kappas=[s.track.kappas.tolist() for s in res.iterations
                    if s.track is not None],
            clamped=[p.clamped for p in res.paths], refined=[p.refined for p in res.paths],
            messages=None,
        )
        if name.startswith("a12/"):
            dist = run_distributed(Y, W, geom, grid, rule, power=cfg.power, trace=True)
            dps["messages"] = message_log(dist.trace)
        paths, corr = polar_omp_fallback(Y, W, geom, grid, rule, cfg.angle_grid_size,
                                         cfg.distance_grid(), cfg.power)
        omp = _paths_record(paths, H, geom, grid)
        omp["corr"] = [int(c) for c in corr]
        # every scenario draws cfg.n_paths paths
        records.append({"name": name, "n_paths": cfg.n_paths, "channel": channel_record(H),
                        "observation": channel_record(Y), "dps": dps, "omp": omp})
    return records


def _difference(key: str, a, b) -> str:
    """One discrete field's mismatch; a message log names its first differing message."""
    if key == "messages" and a is not None and b is not None:
        for i, (ma, mb) in enumerate(zip(a, b)):
            if ma != mb:
                return f"messages: message {i} {ma!r} != {mb!r}"
        return f"messages: {len(a)} != {len(b)} messages"
    return f"{key} {a!r} != {b!r}"


def compare(a: list[dict], b: list[dict]) -> tuple[list[str], dict, dict]:
    """(discrete mismatches, largest difference per quantity, skip counts)."""
    mismatches: list[str] = []
    worst = dict.fromkeys(TOLERANCES, 0.0)
    skipped = {"unphysical paths": 0, "nmse_db values": 0}
    if [r["name"] for r in a] != [r["name"] for r in b]:
        return ["the two dumps hold different scenario lists"], worst, skipped
    for ra, rb in zip(a, b):
        if ra.get("n_paths") != rb.get("n_paths"):
            mismatches.append(f"{ra['name']}: true path count {ra.get('n_paths')!r} != "
                              f"{rb.get('n_paths')!r}")
        for key, quantity in _DIGESTS:
            if key not in ra or key not in rb:
                mismatches.append(f"{ra['name']} {key}: different dump formats (keys)")
            else:
                worst[quantity] = max(worst[quantity],
                                      _channel_difference(ra[key], rb[key]))
        for alg, keys in _DISCRETE.items():
            xa, xb = ra[alg], rb[alg]
            if xa.keys() != xb.keys():
                mismatches.append(f"{ra['name']} {alg}: different dump formats (keys)")
                continue
            bad = [k for k in keys if xa[k] != xb[k]]
            mismatches += [f"{ra['name']} {alg}: {_difference(k, xa[k], xb[k])}" for k in bad]
            if bad:
                continue
            # with the discrete fields equal, every numeric field has one shape
            odd = [k for k in _NUMERIC if np.shape(xa[k]) != np.shape(xb[k])]
            if odd:
                mismatches.append(f"{ra['name']} {alg}: different dump formats "
                                  f"({', '.join(odd)})")
                continue
            pa, pb = np.array(xa["params"]), np.array(xb["params"])
            if pa.size:
                worst["theta/d/r"] = max(worst["theta/d/r"], float(np.abs(pa - pb).max()))
            ga = np.array(xa["gains_re"]) + 1j * np.array(xa["gains_im"])
            gb = np.array(xb["gains_re"]) + 1j * np.array(xb["gains_im"])
            physical = [abs(p[2]) <= UNPHYSICAL_RANGE_M for p in xa["params"]]
            skipped["unphysical paths"] += physical.count(False)
            for ok, row_a, row_b in zip(physical, ga, gb):
                if ok:
                    worst["lpu gain"] = max(worst["lpu gain"],
                                            float(np.abs(row_a - row_b).max()))
            if all(physical):
                worst["nmse_db"] = max(worst["nmse_db"], abs(xa["nmse_db"] - xb["nmse_db"]))
            else:
                skipped["nmse_db values"] += 1
    return mismatches, worst, skipped


def _group(name: str) -> str:
    """A scenario's group: its name without the seed, e.g. default/0dB."""
    return "/".join(part for part in name.split("/") if not part.startswith("seed"))


def accuracy(records: list[dict]) -> dict:
    """Per group, in scenario order: its size, the mean and median nmse_db and
    the mean |L_hat - L| of dps and of omp, and dps's stop-reason counts."""
    groups: dict = {}
    for rec in records:
        groups.setdefault(_group(rec["name"]), []).append(rec)
    summary = {}
    for group, recs in groups.items():
        row = {"count": len(recs)}
        for alg in ("dps", "omp"):
            scores = [r[alg]["nmse_db"] for r in recs]
            row[alg] = (float(np.mean(scores)), float(np.median(scores)),
                        float(np.mean([abs(r[alg]["n_paths"] - r["n_paths"]) for r in recs])))
        stops: dict = {}
        for r in recs:
            stops[r["dps"]["stop_reason"]] = stops.get(r["dps"]["stop_reason"], 0) + 1
        row["stops"] = dict(sorted(stops.items(), key=lambda kv: (-kv[1], kv[0])))
        summary[group] = row
    return summary


def print_accuracy(label: str, records: list[dict]) -> None:
    for group, row in accuracy(records).items():
        algs = "; ".join(f"{alg} nmse_db mean {row[alg][0]:.3f} median {row[alg][1]:.3f} "
                         f"|L_hat-L| {row[alg][2]:.2f}" for alg in ("dps", "omp"))
        stops = ", ".join(f"{reason} {n}" for reason, n in row["stops"].items())
        print(f"{label} {group} ({row['count']}): {algs}; dps stops {stops}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    subs = parser.add_subparsers(dest="command", required=True)
    p_dump = subs.add_parser("dump", help="write the scenario set's results as JSON")
    p_dump.add_argument("out")
    p_dump.add_argument("--limit", type=int, help="keep only the first N scenarios")
    p_cmp = subs.add_parser("compare", help="compare two dumps")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    args = parser.parse_args(argv)

    if args.command == "dump":
        records = dump(args.limit)
        with open(args.out, "w") as fh:
            json.dump(records, fh)
        print(f"wrote {len(records)} scenarios -> {args.out}")
        return 0

    with open(args.a) as fh:
        a = json.load(fh)
    with open(args.b) as fh:
        b = json.load(fh)
    mismatches, worst, skipped = compare(a, b)
    for label, records in (("A", a), ("B", b)):
        if all("n_paths" in r for r in records):
            print_accuracy(label, records)
    for line in mismatches:
        print(f"MISMATCH {line}")
    print(f"{len(a)} scenarios, {len(mismatches)} discrete mismatches")
    over = False
    for name, tol in TOLERANCES.items():
        verdict = "ok" if worst[name] <= tol else "OVER"
        over |= worst[name] > tol
        print(f"largest {name} difference {worst[name]:.3g} (tolerance {tol:g}: {verdict})")
    print(f"left out: {skipped['unphysical paths']} paths with |range_m| > "
          f"{UNPHYSICAL_RANGE_M:g} m, {skipped['nmse_db values']} nmse_db values")
    if mismatches:
        return 1
    return 2 if over else 0


if __name__ == "__main__":
    sys.exit(main())
