"""Monte Carlo harness: configuration, trial execution, baselines, CSV output.

Configuration lives in an INI-style file; every physical key carries a unit
suffix (``_hz``, ``_m``, ``_db``) because unit slips are the dominant bug
class here.  Randomness uses counter-based Philox streams addressed by
(master seed, trial, stream role) so any single trial is reproducible in
isolation.  CSV files are byte-deterministic for a fixed master seed unless
wall-clock timing capture is explicitly enabled.
"""

from __future__ import annotations

import configparser
import io
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .model import (
    ArrayGeometry,
    PathParams,
    SubcarrierGrid,
    SPEED_OF_LIGHT,
    check_delay_validity,
    steering_vector,
    synthesize_channel,
)
from .frontend import (
    apply_impairments,
    noise_var_for_snr,
    observe,
    random_phase_combiner,
)
from .estimator import (
    DelayDictionary,
    PathEstimate,
    StoppingRule,
    check_inputs,
    fit_and_cancel,
    max_hop,
    ml_delay_detect,
    reconstruct_channel,
    run_dps,
    stopping_threshold,
)
from .bounds import resolution_predicate

CSV_COLUMNS = (
    "seed,trial,snr_db,N,K,M,L,L_hat,algorithm,nmse_db,"
    "theta_err,d_err_m,r_err_m,runtime_ms,fallback,corr_count"
)

ALGORITHMS = ("dps", "ls", "omp")

# Philox stream roles within one trial
_STREAM_PATHS = 0
_STREAM_COMBINER = 1
_STREAM_NOISE = 2
_STREAM_IMPAIR = 3


class ConfigError(ValueError):
    """Invalid or unparseable configuration."""


@dataclass(frozen=True)
class SimConfig:
    n_antennas: int = 256
    n_subarrays: int = 32
    carrier_hz: float = 7e9
    spacing_m: float | None = None
    n_subcarriers: int = 256
    bandwidth_hz: float = 600e6
    n_paths: int = 2
    d_min_m: float = 10.0
    d_max_m: float = 20.0
    r_min_m: float = 10.0
    r_max_m: float = 20.0
    theta_max: float = 0.95
    theta_list: tuple = ()
    d_list_m: tuple = ()
    r_list_m: tuple = ()
    snr_db: tuple = (10.0,)
    trials: int = 10
    seed: int = 0
    algorithms: tuple = ("dps",)
    p_fa: float = 1e-3
    max_paths: int = 16
    power: float = 1.0
    reject_unresolvable: bool = True
    clock_offset_frac_max: float = 0.0
    gain_factor_min: float = 1.0
    angle_grid_size: int = 64
    distance_grid_size: int = 16
    distance_grid_min_m: float = 5.0
    distance_grid_max_m: float = 40.0
    csv_path: str | None = None
    timing: bool = False

    def __post_init__(self):
        for section, build in (("geometry", self.geometry), ("grid", self.grid)):
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"{section}: {exc}") from None
        min_paths = 0 if self.theta_list else 1
        if self.n_paths < min_paths:
            raise ConfigError(f"paths.count must be >= {min_paths}, got {self.n_paths}")
        if self.trials < 0:
            raise ConfigError(f"sweep.trials must be >= 0, got {self.trials}")
        if not 0.0 < self.theta_max < 1.0:
            raise ConfigError(f"paths.theta_max must be in (0,1), got {self.theta_max}")
        if not (np.isfinite(self.d_max_m) and 0.0 < self.d_min_m <= self.d_max_m):
            raise ConfigError("paths.d range must be finite and satisfy "
                              "0 < d_min_m <= d_max_m")
        if not (np.isfinite(self.r_max_m) and 0.0 <= self.r_min_m <= self.r_max_m):
            raise ConfigError("paths.r range must be finite and satisfy "
                              "0 <= r_min_m <= r_max_m")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ConfigError(
                    f"unknown algorithm {alg!r}; choose from {ALGORITHMS}"
                )
        if not all(np.isfinite(self.snr_db)):
            raise ConfigError(f"sweep.snr_db must be finite, got {self.snr_db}")
        if not (np.isfinite(self.power) and self.power > 0.0):
            raise ConfigError(f"sweep.power must be finite and > 0, got {self.power}")
        if not 0.0 < self.p_fa < 1.0:
            raise ConfigError(f"stopping.p_fa must be in (0,1), got {self.p_fa}")
        if self.max_paths < 0:
            raise ConfigError(f"stopping.max_paths must be >= 0, got {self.max_paths}")
        if not 0.0 < self.gain_factor_min <= 1.0:
            raise ConfigError("impairments.gain_factor_min must be in (0,1]")
        if self.angle_grid_size < 1:
            raise ConfigError(
                f"omp.angle_grid_size must be >= 1, got {self.angle_grid_size}")
        if self.distance_grid_size < 1:
            raise ConfigError(
                f"omp.distance_grid_size must be >= 1, got {self.distance_grid_size}")
        if not 0.0 < self.distance_grid_min_m <= self.distance_grid_max_m:
            raise ConfigError("omp.distance_grid range must satisfy "
                              "0 < distance_grid_min_m <= distance_grid_max_m")

    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(
            self.n_antennas, self.n_subarrays, self.carrier_hz, self.spacing_m
        )

    def grid(self) -> SubcarrierGrid:
        return SubcarrierGrid.from_bandwidth(self.n_subcarriers, self.bandwidth_hz)

    def distance_grid(self) -> np.ndarray:
        """Polar-OMP distance grid, geometrically spaced."""
        return np.geomspace(
            self.distance_grid_min_m, self.distance_grid_max_m, self.distance_grid_size
        )

    def derived_summary(self) -> dict:
        geom, grid = self.geometry(), self.grid()
        noise_ref = 1.0
        return {
            "subarray_size": geom.subarray_size,
            "subcarrier_spacing_hz": grid.spacing_hz,
            "extrapolation_hop": max_hop(geom, grid),
            "cfar_threshold_unit_noise": stopping_threshold(
                noise_ref, grid.n_subcarriers, self.p_fa
            ),
        }


_SCHEMA = {
    ("geometry", "n_antennas"): ("n_antennas", int),
    ("geometry", "n_subarrays"): ("n_subarrays", int),
    ("geometry", "carrier_hz"): ("carrier_hz", float),
    ("geometry", "spacing_m"): ("spacing_m", float),
    ("grid", "n_subcarriers"): ("n_subcarriers", int),
    ("grid", "bandwidth_hz"): ("bandwidth_hz", float),
    ("paths", "count"): ("n_paths", int),
    ("paths", "d_min_m"): ("d_min_m", float),
    ("paths", "d_max_m"): ("d_max_m", float),
    ("paths", "r_min_m"): ("r_min_m", float),
    ("paths", "r_max_m"): ("r_max_m", float),
    ("paths", "theta_max"): ("theta_max", float),
    ("paths", "theta_list"): ("theta_list", "floats"),
    ("paths", "d_list_m"): ("d_list_m", "floats"),
    ("paths", "r_list_m"): ("r_list_m", "floats"),
    ("sweep", "snr_db"): ("snr_db", "floats"),
    ("sweep", "trials"): ("trials", int),
    ("sweep", "seed"): ("seed", int),
    ("sweep", "algorithms"): ("algorithms", "strs"),
    ("sweep", "reject_unresolvable"): ("reject_unresolvable", "bool"),
    ("sweep", "timing"): ("timing", "bool"),
    ("sweep", "power"): ("power", float),
    ("stopping", "p_fa"): ("p_fa", float),
    ("stopping", "max_paths"): ("max_paths", int),
    ("impairments", "clock_offset_frac_max"): ("clock_offset_frac_max", float),
    ("impairments", "gain_factor_min"): ("gain_factor_min", float),
    ("omp", "angle_grid_size"): ("angle_grid_size", int),
    ("omp", "distance_grid_size"): ("distance_grid_size", int),
    ("omp", "distance_grid_min_m"): ("distance_grid_min_m", float),
    ("omp", "distance_grid_max_m"): ("distance_grid_max_m", float),
    ("output", "csv_path"): ("csv_path", str),
}


def _convert(raw: str, kind, where: str):
    try:
        if kind == "floats":
            return tuple(float(x) for x in raw.replace(",", " ").split())
        if kind == "strs":
            return tuple(x.strip() for x in raw.replace(",", " ").split())
        if kind == "bool":
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_config(path: str, overrides: dict | None = None) -> SimConfig:
    """Read an INI config file; ``overrides`` maps SimConfig field names."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    values: dict = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            entry = _SCHEMA.get((section, key))
            if entry is None:
                raise ConfigError(f"unknown config key [{section}] {key}")
            name, kind = entry
            values[name] = _convert(raw, kind, f"[{section}] {key}")
    if overrides:
        values.update(overrides)
    return SimConfig(**values)


def trial_rng(master_seed: int, trial: int, stream: int) -> np.random.Generator:
    """Counter-based stream: (seed, trial, role) fully addresses the draw."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(trial, stream))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class RunRecord:
    seed: int
    trial: int
    snr_db: float
    n_antennas: int
    n_subarrays: int
    n_subcarriers: int
    n_paths: int
    n_paths_est: int
    algorithm: str
    nmse_db: float
    theta_err: float
    d_err_m: float
    r_err_m: float
    runtime_ms: float
    fallback: bool
    corr_count: int

    def csv_row(self) -> str:
        def f(x):
            if isinstance(x, float):
                return format(x, ".12g")
            if isinstance(x, bool):
                return "1" if x else "0"
            return str(x)

        return ",".join(f(getattr(self, field.name)) for field in fields(self))


# ---------------------------------------------------------------------------
# metrics and baselines


def nmse(H_est: np.ndarray, H_true: np.ndarray) -> float:
    """||vec(H_est - H_true)||^2 / ||vec(H_true)||^2."""
    denom = float(np.sum(np.abs(H_true) ** 2))
    if denom == 0.0:
        raise ValueError("true channel is identically zero")
    return float(np.sum(np.abs(H_est - H_true) ** 2)) / denom


def nmse_db(H_est: np.ndarray, H_true: np.ndarray) -> float:
    return 10.0 * np.log10(nmse(H_est, H_true))


def ls_baseline(Y: np.ndarray, combiners: np.ndarray, power: float = 1.0) -> np.ndarray:
    """Minimum-norm LS estimate A^H Y / sqrt(P); rank-K in an N-dim space.

    A is block diagonal with rows f_k^H, so subarray k's block of A^H Y is
    the outer product f_k y_k^T; the dense K x N matrix is never formed.
    """
    check_inputs(Y, combiners, power)
    K, ns = combiners.shape
    blocks = combiners[:, :, None] * Y[:, None, :]
    return blocks.reshape(K * ns, Y.shape[1]) / np.sqrt(power)


def polar_omp_fallback(
    Y: np.ndarray,
    combiners: np.ndarray,
    geom: ArrayGeometry,
    grid: SubcarrierGrid,
    rule: StoppingRule,
    angle_grid_size: int,
    distance_grid: np.ndarray,
    power: float = 1.0,
):
    """Greedy matching pursuit over a polar (angle x distance) dictionary.

    Atoms are combined narrowband subarray steering responses
    c_k(theta_g, d_g) = f_k^H w_k(theta_g, d_g), stored as one (G, K) table
    with G = G_theta * G_d in theta-major order.  Each iteration scores every
    atom by the band energy of its normalized projection,
    ||a_g^H R||^2 / ||a_g||^2, in Gram form a_g^H (R R^H) a_g, so the G x M
    projection is never formed; ties go to the first atom in theta-major
    order.  Only the winner is projected: the delay is fit on its frequency
    series, and the per-subarray gains and residual use the same machinery as
    the main estimator.  Returns (paths, correlations_per_iteration).
    """
    check_inputs(Y, combiners, power, geom, grid)
    K, M = geom.n_subarrays, grid.n_subcarriers
    if angle_grid_size < 1:
        raise ValueError("empty angle grid")
    distance_grid = np.asarray(distance_grid, dtype=float)
    if distance_grid.size == 0:
        raise ValueError("empty distance grid")
    theta_grid = (2.0 * np.arange(angle_grid_size) + 1.0) / angle_grid_size - 1.0
    n_dist = distance_grid.size

    # atom table (G, K), built one angle (G_d steering vectors) at a time
    atoms = np.empty((angle_grid_size, n_dist, K), dtype=complex)
    f_h = combiners.conj()
    for i, th in enumerate(theta_grid):
        w = steering_vector(th, distance_grid[:, None], geom)
        atoms[i] = np.einsum("kn,gkn->gk", f_h, w.reshape(n_dist, K, -1))
    atoms = atoms.reshape(-1, K)
    atoms_h = atoms.conj()
    norms = np.maximum(np.linalg.norm(atoms, axis=1), 1e-300)

    dictionary = DelayDictionary(M)
    threshold = stopping_threshold(rule.noise_var, M, rule.p_fa)
    resid = np.array(Y, dtype=complex, copy=True)
    kc = K // 2 - 1
    paths: list[PathEstimate] = []
    corr_per_iter: list[int] = []

    while len(paths) < rule.max_paths:
        _, _, peak = ml_delay_detect(resid[kc], dictionary)
        if peak <= threshold:
            break
        gram = resid @ resid.conj().T
        scores = np.sum((atoms_h @ gram) * atoms, axis=1).real / norms**2
        corr_per_iter.append(atoms.shape[0])
        g = int(np.argmax(scores))
        th_g, d_g = float(theta_grid[g // n_dist]), float(distance_grid[g % n_dist])

        # frequency series along the chosen atom -> delay and range
        series = (atoms_h[g] @ resid) / norms[g] ** 2
        _, tau, _ = ml_delay_detect(series, dictionary)
        rng_m = tau * SPEED_OF_LIGHT / grid.spacing_hz - d_g
        paths.append(fit_and_cancel(resid, th_g, d_g, rng_m, combiners, geom, grid,
                                    power))
    return paths, corr_per_iter


# ---------------------------------------------------------------------------
# path drawing and parameter-error accounting


def draw_paths(cfg: SimConfig, rng: np.random.Generator,
               grid: SubcarrierGrid) -> list[PathParams]:
    """Draw L paths from the configured distributions.

    With rejection enabled, redraws any path whose center delay is within one
    dictionary bin of an already drawn path, so multipath NMSE benchmarks run
    on resolvable sets.  Explicit lists bypass the draw.
    """
    if cfg.theta_list:
        if not (len(cfg.theta_list) == len(cfg.d_list_m) == len(cfg.r_list_m)):
            raise ConfigError("explicit path lists must have equal lengths")
        gains = [
            complex(rng.normal(), rng.normal()) / np.sqrt(2.0)
            for _ in cfg.theta_list
        ]
        return [
            PathParams(t, d, r, g)
            for t, d, r, g in zip(cfg.theta_list, cfg.d_list_m, cfg.r_list_m, gains)
        ]
    paths: list[PathParams] = []
    attempts = 0
    while len(paths) < cfg.n_paths:
        attempts += 1
        if attempts > 200 * max(cfg.n_paths, 1):
            raise ConfigError(
                "path rejection sampling failed; the configured geometry "
                "cannot host the requested number of resolvable paths"
            )
        cand = PathParams(
            theta=float(rng.uniform(-cfg.theta_max, cfg.theta_max)),
            dist_m=float(rng.uniform(cfg.d_min_m, cfg.d_max_m)),
            range_m=float(rng.uniform(cfg.r_min_m, cfg.r_max_m)),
            gain=complex(rng.normal(), rng.normal()) / np.sqrt(2.0),
        )
        if cfg.reject_unresolvable and any(
            not resolution_predicate(cand, p, grid)[0] for p in paths
        ):
            continue
        paths.append(cand)
    return paths


def match_paths(est: list, truth: list[PathParams], grid: SubcarrierGrid
                ) -> list[tuple]:
    """Greedy bijective matching on center delay within 2 dictionary bins."""
    bin_m = SPEED_OF_LIGHT / (grid.n_subcarriers * grid.spacing_hz)
    pairs = []
    used = set()
    order = sorted(
        ((abs(e.range_m + e.dist_m - t.total_m), i, j)
         for i, e in enumerate(est) for j, t in enumerate(truth)),
    )
    taken_e = set()
    for sep, i, j in order:
        if i in taken_e or j in used or sep > 2.0 * bin_m:
            continue
        taken_e.add(i)
        used.add(j)
        pairs.append((est[i], truth[j]))
    return pairs


def parameter_errors(est: list, truth: list[PathParams], grid: SubcarrierGrid
                     ) -> tuple[float, float, float]:
    pairs = match_paths(est, truth, grid)
    if not pairs:
        return float("nan"), float("nan"), float("nan")
    th = float(np.mean([abs(e.theta - t.theta) for e, t in pairs]))
    dd = float(np.mean([abs(e.dist_m - t.dist_m) for e, t in pairs]))
    rr = float(np.mean([abs(e.range_m - t.range_m) for e, t in pairs]))
    return th, dd, rr


# ---------------------------------------------------------------------------
# trial execution and sweeps


def estimate(
    algorithm: str,
    Y: np.ndarray,
    combiners: np.ndarray,
    geom: ArrayGeometry,
    grid: SubcarrierGrid,
    rule: StoppingRule,
    angle_grid_size: int,
    distance_grid: np.ndarray,
    power: float = 1.0,
):
    """Run one algorithm on an observation: (paths, H_hat, fallback, corr_count).

    ``angle_grid_size`` and ``distance_grid`` set the polar-OMP dictionary;
    LS extracts no paths and counts no correlations.
    """
    if algorithm == "dps":
        res = run_dps(Y, combiners, geom, grid, rule, power=power)
        return (res.paths, reconstruct_channel(res.paths, geom, grid),
                res.fallback, res.corr_total)
    if algorithm == "omp":
        paths, corr_iters = polar_omp_fallback(
            Y, combiners, geom, grid, rule, angle_grid_size, distance_grid, power
        )
        return paths, reconstruct_channel(paths, geom, grid), False, int(sum(corr_iters))
    if algorithm == "ls":
        return [], ls_baseline(Y, combiners, power), False, 0
    raise ConfigError(f"unknown algorithm {algorithm!r}")


# One slot: the last (config, trial) drawn and its (paths, H, W).  A sweep
# runs every SNR and algorithm of a trial back to back, and none of them
# changes these, so each trial's channel is synthesized once.  The noise and
# the impairments depend on the SNR and are drawn on every call.  The key is
# a snapshot of the config's values, so a config that differs in any field,
# or whose lists were changed in place, draws afresh.  The slot is read and
# replaced as one reference, so a caller never pairs one trial's key with
# another trial's channel.
_TRIAL_SLOT: list = [None]


def _trial_channel(cfg: SimConfig, trial: int):
    """(paths, H, W) of one trial, shared by all its SNRs and algorithms.

    H and W are read-only because every caller of the trial shares them;
    each call gets a new list of the (frozen) paths.
    """
    key = (astuple(cfg), trial)
    held = _TRIAL_SLOT[0]
    if held is None or held[0] != key:
        held = _TRIAL_SLOT[0] = None  # before drawing, so two channels never coexist
        geom, grid = cfg.geometry(), cfg.grid()
        paths = draw_paths(cfg, trial_rng(cfg.seed, trial, _STREAM_PATHS), grid)
        check_delay_validity(paths, geom, grid)
        H = synthesize_channel(paths, geom, grid)
        W = random_phase_combiner(geom, trial_rng(cfg.seed, trial, _STREAM_COMBINER))
        H.flags.writeable = False
        W.flags.writeable = False
        held = _TRIAL_SLOT[0] = (key, (tuple(paths), H, W))
    paths, H, W = held[1]
    return list(paths), H, W


def _release_trial_channel() -> None:
    """Empty the slot, so no channel outlives the sweep that drew it."""
    _TRIAL_SLOT[0] = None


def draw_trial(cfg: SimConfig, trial: int, snr_db: float):
    """One trial's scenario: (paths, H, W, noise_var, Y).

    Y carries the configured impairments, so every caller (``run_trial``,
    ``simulate``) estimates from the same observation.  H and W are read-only.
    """
    geom, grid = cfg.geometry(), cfg.grid()
    paths, H, W = _trial_channel(cfg, trial)
    noise_var = noise_var_for_snr(H, W, cfg.power, snr_db)
    Y = observe(H, W, cfg.power, noise_var, trial_rng(cfg.seed, trial, _STREAM_NOISE))
    if cfg.clock_offset_frac_max > 0.0 or cfg.gain_factor_min < 1.0:
        rng_imp = trial_rng(cfg.seed, trial, _STREAM_IMPAIR)
        K = geom.n_subarrays
        offsets = (
            rng_imp.uniform(-cfg.clock_offset_frac_max, cfg.clock_offset_frac_max, K)
            if cfg.clock_offset_frac_max > 0.0 else None
        )
        factors = (
            rng_imp.uniform(cfg.gain_factor_min, 1.0, K)
            if cfg.gain_factor_min < 1.0 else None
        )
        Y = apply_impairments(Y, grid, geom.carrier_hz, offsets, factors)
    return paths, H, W, noise_var, Y


def run_trial(cfg: SimConfig, trial: int, snr_db: float, algorithm: str
              ) -> RunRecord:
    geom, grid = cfg.geometry(), cfg.grid()
    paths, H, W, noise_var, Y = draw_trial(cfg, trial, snr_db)

    rule = StoppingRule(noise_var=noise_var, p_fa=cfg.p_fa, max_paths=cfg.max_paths)
    dist_grid = cfg.distance_grid()
    t0 = time.perf_counter()
    est_paths, H_hat, fallback, corr_count = estimate(
        algorithm, Y, W, geom, grid, rule, cfg.angle_grid_size, dist_grid, cfg.power
    )
    elapsed_ms = (time.perf_counter() - t0) * 1e3

    th_err, d_err, r_err = parameter_errors(est_paths, paths, grid)
    return RunRecord(
        seed=cfg.seed,
        trial=trial,
        snr_db=snr_db,
        n_antennas=geom.n_antennas,
        n_subarrays=geom.n_subarrays,
        n_subcarriers=grid.n_subcarriers,
        n_paths=len(paths),
        n_paths_est=len(est_paths),
        algorithm=algorithm,
        nmse_db=nmse_db(H_hat, H),
        theta_err=th_err,
        d_err_m=d_err,
        r_err_m=r_err,
        runtime_ms=elapsed_ms if cfg.timing else 0.0,
        fallback=fallback,
        corr_count=corr_count,
    )


def monte_carlo_sweep(cfg: SimConfig) -> list[RunRecord]:
    """Run the (trial, snr, algorithm) lattice; write CSV if configured."""
    try:
        records = [
            run_trial(cfg, trial, snr, alg)
            for trial in range(cfg.trials)
            for snr in cfg.snr_db
            for alg in cfg.algorithms
        ]
    finally:
        _release_trial_channel()
    if cfg.csv_path:
        write_records_csv(cfg.csv_path, records)
    return records


def records_csv_text(records: list[RunRecord]) -> str:
    buf = io.StringIO()
    buf.write(CSV_COLUMNS + "\n")
    for rec in records:
        buf.write(rec.csv_row() + "\n")
    return buf.getvalue()


def write_records_csv(path: str, records: list[RunRecord]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(records_csv_text(records))


# ---------------------------------------------------------------------------
# bounds table


BOUNDS_COLUMNS = (
    "theta,d_m,r_m,K,N,M,df_hz,P,sigma2,"
    "crlb_theta_num,crlb_d_num,crlb_r_num,"
    "crlb_theta_cf,crlb_d_cf,crlb_r_cf,tau_cb,lb_theta,lb_d,lb_r"
)


def bounds_table(scenarios, geom: ArrayGeometry, grid: SubcarrierGrid,
                 power: float, noise_var: float, form: str = "corrected") -> str:
    """CSV text of numeric/closed-form bounds for (theta, d, r) scenarios."""
    from .bounds import bounds_report

    lines = [BOUNDS_COLUMNS]
    for theta, d_m, r_m in scenarios:
        path = PathParams(theta, d_m, r_m, gain=1.0 + 0.0j)
        rep = bounds_report(path, geom, grid, power, noise_var, form)
        vals = (
            theta, d_m, r_m, geom.n_subarrays, geom.n_antennas,
            grid.n_subcarriers, grid.spacing_hz, power, noise_var,
            rep.theta_cb, rep.d_cb, rep.r_cb,
            rep.theta_cb_cf, rep.d_cb_cf, rep.r_cb_cf,
            rep.tau_cb, rep.theta_lb, rep.d_lb, rep.r_lb,
        )
        lines.append(",".join(
            format(v, ".17g") if isinstance(v, float) else str(v) for v in vals
        ))
    return "\n".join(lines) + "\n"
