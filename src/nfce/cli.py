"""Command-line front end: simulate / estimate / bounds / sweep.

Every subcommand accepts ``--config FILE`` (INI format, see
:mod:`nfce.harness`) plus flag overrides for the common fields.  Exit code 0
on success; failures print one categorized line ``error: <category>:
<message>`` to stderr and exit nonzero (2 = configuration, 3 = I/O,
1 = anything else).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import zipfile

import numpy as np

from .harness import (
    ALGORITHMS,
    CONFIG_KEYS,
    ConfigError,
    SimConfig,
    bounds_table,
    draw_trial,
    estimate,
    load_config,
    monte_carlo_sweep,
    nmse_db,
    parse_value,
    records_csv_text,
    true_channel,
)
from .model import PathParams, synthesize_channel

# flag -> the SimConfig field it sets, parsed as the field's INI key is
_FLAGS = {f.metadata["flag"]: f.name
          for f in dataclasses.fields(SimConfig) if f.metadata["flag"]}

# the config fields a scenario file stores, so `estimate --scenario` rebuilds
# the geometry, grid and power it was drawn with
_SCENARIO_FIELDS = ("n_antennas", "n_subarrays", "carrier_hz", "spacing_m",
                    "n_subcarriers", "bandwidth_hz", "power")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI configuration file")
    for flag, dest in _FLAGS.items():
        sub.add_argument(flag, dest=dest, help=f"overrides {CONFIG_KEYS[dest][0]}")
    sub.add_argument("--timing", action="store_true", default=None,
                     help="record wall-clock runtime_ms (breaks byte determinism)")


def _build_config(args) -> SimConfig:
    trial = getattr(args, "trial", 0)
    if trial < 0:
        raise ConfigError(f"--trial must be a nonnegative integer, got {trial}")
    overrides = {dest: parse_value(getattr(args, dest), CONFIG_KEYS[dest][1], flag)
                 for flag, dest in _FLAGS.items() if getattr(args, dest) is not None}
    if getattr(args, "timing", None):
        overrides["timing"] = True
    if getattr(args, "out", None) and args.command == "sweep":
        overrides["csv_path"] = args.out
    if args.config:
        return load_config(args.config, overrides)
    return SimConfig(**overrides)


def _cmd_simulate(args) -> int:
    cfg = _build_config(args)
    snr = cfg.snr_db[0]
    paths, W, noise_var, Y = draw_trial(cfg, args.trial, snr)
    # the spacing it was drawn with: None in the config means half a wavelength
    saved = dataclasses.replace(cfg, spacing_m=cfg.geometry().spacing_m)
    np.savez(
        args.out,
        H=synthesize_channel(paths, cfg.geometry(), cfg.grid()), Y=Y, W=W,
        theta=[p.theta for p in paths],
        d_m=[p.dist_m for p in paths],
        r_m=[p.range_m for p in paths],
        gain=[p.gain for p in paths],
        **{name: getattr(saved, name) for name in _SCENARIO_FIELDS},
        snr_db=snr, noise_var=noise_var, seed=cfg.seed, trial=args.trial,
    )
    print(f"wrote scenario with L={len(paths)} paths, SNR {snr:g} dB -> {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    cfg = _build_config(args)
    if args.scenario:
        try:
            data = np.load(args.scenario)
            if not isinstance(data, np.lib.npyio.NpzFile):
                # a .npy file loads as an array, which is no context manager
                # (AttributeError before Python 3.11, TypeError since)
                raise TypeError("not an .npz archive")
            with data:
                scene = {name: data[name].item() for name in _SCENARIO_FIELDS}
                paths = [PathParams(*entry) for entry in zip(
                    data["theta"], data["d_m"], data["r_m"], data["gain"], strict=True)]
                W, Y = data["W"], data["Y"]
                noise_var = float(data["noise_var"])
        except KeyError as exc:
            raise ConfigError(f"scenario {args.scenario}: {exc.args[0]}") from None
        except (TypeError, ValueError, zipfile.BadZipFile) as exc:
            # not a readable .npz, or an entry of the wrong shape (a 0-d
            # theta has no length); numpy's messages can span several lines
            raise ConfigError(f"scenario {args.scenario}: {' '.join(str(exc).split())}") from None
        # the file's geometry, grid and power, validated by SimConfig
        cfg = dataclasses.replace(cfg, **scene)
    else:
        paths, W, noise_var, Y = draw_trial(cfg, args.trial, cfg.snr_db[0])
    # scored in path space, as run_trial scores, against the paths' channel
    truth = true_channel(paths, W, cfg.geometry(), cfg.grid())
    est, H_hat, fallback, corr = estimate(cfg, args.algorithm, Y, W, noise_var)
    extra = {"dps": f" fallback={fallback} corr={corr}",
             "omp": f" corr={corr}", "ls": ""}[args.algorithm]
    print(f"algorithm={args.algorithm} L_hat={len(est)} "
          f"nmse_db={nmse_db(H_hat, truth):.3f} L={len(paths)}{extra}")
    for i, p in enumerate(est):
        print(f"  path {i}: theta={p.theta:+.6f} d={p.dist_m:.4f} m "
              f"r={p.range_m:.4f} m |gain|={abs(p.gain):.4f}")
    return 0


def _cmd_bounds(args) -> int:
    cfg = _build_config(args)
    geom, grid = cfg.geometry(), cfg.grid()
    thetas = parse_value(args.theta, "floats", "--theta")
    ds = parse_value(args.d_m, "floats", "--d-m")
    rs = parse_value(args.r_m, "floats", "--r-m")
    if not (0 < len(thetas) == len(ds) == len(rs)):
        raise ConfigError("theta, d-m and r-m lists must be nonempty and of equal lengths")
    try:
        paths = [PathParams(*entry) for entry in zip(thetas, ds, rs)]
    except ValueError as exc:
        raise ConfigError(f"--theta/--d-m/--r-m: {exc}") from None
    if not (math.isfinite(args.noise_var) and args.noise_var > 0.0):
        raise ConfigError(f"--noise-var must be finite and positive, got {args.noise_var!r}")
    text = bounds_table(paths, geom, grid, cfg.power, args.noise_var, form=args.form)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {len(paths)} scenario rows -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _build_config(args)
    records = monte_carlo_sweep(cfg)
    if not cfg.csv_path:
        sys.stdout.write(records_csv_text(records))
    else:
        print(f"wrote {len(records)} records -> {cfg.csv_path}")
    per_alg: dict = {}
    for rec in records:
        per_alg.setdefault(rec.algorithm, []).append(rec.nmse_db)
    for alg, vals in sorted(per_alg.items()):
        print(f"# {alg}: mean nmse_db {float(np.mean(vals)):.2f} over {len(vals)} runs",
              file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfce",
        description="wideband near-field channel estimation testbench",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_sim = subs.add_parser("simulate", help="draw one scenario and dump it")
    _add_common(p_sim)
    p_sim.add_argument("--trial", type=int, default=0)
    p_sim.add_argument("--out", required=True, help="output .npz path")
    p_sim.set_defaults(func=_cmd_simulate)

    p_est = subs.add_parser("estimate", help="run one algorithm on a scenario")
    _add_common(p_est)
    p_est.add_argument("--algorithm", default="dps", choices=ALGORITHMS)
    p_est.add_argument("--scenario", help="scenario .npz from `simulate`")
    p_est.add_argument("--trial", type=int, default=0)
    p_est.set_defaults(func=_cmd_estimate)

    p_bnd = subs.add_parser("bounds", help="numeric and closed-form bound tables")
    _add_common(p_bnd)
    p_bnd.add_argument("--theta", default="0.2", help="comma list")
    p_bnd.add_argument("--d-m", dest="d_m", default="10", help="comma list")
    p_bnd.add_argument("--r-m", dest="r_m", default="10", help="comma list")
    p_bnd.add_argument("--noise-var", dest="noise_var", type=float, default=1e-2)
    p_bnd.add_argument("--form", default="corrected",
                       choices=("corrected", "printed"))
    p_bnd.add_argument("--out")
    p_bnd.set_defaults(func=_cmd_bounds)

    p_swp = subs.add_parser("sweep", help="Monte Carlo sweep to CSV")
    _add_common(p_swp)
    p_swp.add_argument("--out", help="CSV output path (overrides config)")
    p_swp.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 3
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: run: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
