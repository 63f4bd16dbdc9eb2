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
import math
import time
from dataclasses import astuple, dataclass, field, fields

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
    RowBlocks,
    StoppingRule,
    check_inputs,
    fit_and_cancel,
    ml_delay_detect,
    reconstruct_rows,
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


def _setting(default, key: str, kind, flag: str | None = None):
    """A SimConfig field: its INI ``key`` ("section.key"), parsed as ``kind``
    (see :func:`parse_value`), and the CLI ``flag`` that overrides it, if any."""
    return field(default=default, metadata={"key": key, "kind": kind, "flag": flag})


@dataclass(frozen=True)
class SimConfig:
    n_antennas: int = _setting(256, "geometry.n_antennas", int, "--n-antennas")
    n_subarrays: int = _setting(32, "geometry.n_subarrays", int, "--n-subarrays")
    carrier_hz: float = _setting(7e9, "geometry.carrier_hz", float, "--carrier-hz")
    spacing_m: float | None = _setting(None, "geometry.spacing_m", float)
    n_subcarriers: int = _setting(256, "grid.n_subcarriers", int, "--n-subcarriers")
    bandwidth_hz: float = _setting(600e6, "grid.bandwidth_hz", float, "--bandwidth-hz")
    n_paths: int = _setting(2, "paths.count", int, "--paths")
    d_min_m: float = _setting(10.0, "paths.d_min_m", float)
    d_max_m: float = _setting(20.0, "paths.d_max_m", float)
    r_min_m: float = _setting(10.0, "paths.r_min_m", float)
    r_max_m: float = _setting(20.0, "paths.r_max_m", float)
    theta_max: float = _setting(0.95, "paths.theta_max", float)
    theta_list: tuple = _setting((), "paths.theta_list", "floats")
    d_list_m: tuple = _setting((), "paths.d_list_m", "floats")
    r_list_m: tuple = _setting((), "paths.r_list_m", "floats")
    snr_db: tuple = _setting((10.0,), "sweep.snr_db", "floats", "--snr-db")
    trials: int = _setting(10, "sweep.trials", int, "--trials")
    seed: int = _setting(0, "sweep.seed", int, "--seed")
    algorithms: tuple = _setting(("dps",), "sweep.algorithms", "strs", "--algorithms")
    p_fa: float = _setting(1e-3, "stopping.p_fa", float, "--p-fa")
    max_paths: int = _setting(16, "stopping.max_paths", int, "--max-paths")
    power: float = _setting(1.0, "sweep.power", float, "--power")
    clock_offset_frac_max: float = _setting(0.0, "impairments.clock_offset_frac_max", float)
    gain_factor_min: float = _setting(1.0, "impairments.gain_factor_min", float)
    angle_grid_size: int = _setting(64, "omp.angle_grid_size", int)
    distance_grid_size: int = _setting(16, "omp.distance_grid_size", int)
    distance_grid_min_m: float = _setting(5.0, "omp.distance_grid_min_m", float)
    distance_grid_max_m: float = _setting(40.0, "omp.distance_grid_max_m", float)
    csv_path: str | None = _setting(None, "output.csv_path", str)
    timing: bool = _setting(False, "sweep.timing", "bool")

    def __post_init__(self):
        for name, key in _INT_KEYS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        for section, build in (("geometry", self.geometry), ("grid", self.grid)):
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"{section}: {exc}") from None
        min_paths = 0 if self.theta_list else 1
        if self.n_paths < min_paths:
            raise ConfigError(f"{_ini_key('n_paths')} must be >= {min_paths}, got {self.n_paths}")
        if not len(self.theta_list) == len(self.d_list_m) == len(self.r_list_m):
            raise ConfigError(f"{_ini_key('theta_list')}, d_list_m and r_list_m differ in length")
        for entry in zip(self.theta_list, self.d_list_m, self.r_list_m):
            try:
                PathParams(*entry)
            except ValueError as exc:
                raise ConfigError(f"{_ini_key('theta_list')}/d_list_m/r_list_m: {exc}") from None
        if self.trials < 0:
            raise ConfigError(f"{_ini_key('trials')} must be >= 0, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"{_ini_key('seed')} must be >= 0, got {self.seed}")
        if not 0.0 < self.theta_max < 1.0:
            raise ConfigError(f"{_ini_key('theta_max')} must be in (0,1), got {self.theta_max}")
        if not (np.isfinite(self.d_max_m) and 0.0 < self.d_min_m <= self.d_max_m):
            raise ConfigError("paths.d range must be finite and satisfy "
                              "0 < d_min_m <= d_max_m")
        if not (np.isfinite(self.r_max_m) and 0.0 <= self.r_min_m <= self.r_max_m):
            raise ConfigError("paths.r range must be finite and satisfy "
                              "0 <= r_min_m <= r_max_m")
        if not self.algorithms:
            raise ConfigError(f"{_ini_key('algorithms')} must name at least one algorithm")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ConfigError(
                    f"unknown algorithm {alg!r}; choose from {ALGORITHMS}"
                )
        if not self.snr_db:
            raise ConfigError(f"{_ini_key('snr_db')} must list at least one SNR")
        if not all(np.isfinite(self.snr_db)):
            raise ConfigError(f"{_ini_key('snr_db')} must be finite, got {self.snr_db}")
        # a repeated value would run again and write the same rows twice
        for name, values in (("algorithms", self.algorithms), ("snr_db", self.snr_db)):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(f"{_ini_key(name)} names "
                                  f"{', '.join(map(str, repeated))} more than once")
        if not (np.isfinite(self.power) and self.power > 0.0):
            raise ConfigError(f"{_ini_key('power')} must be finite and > 0, got {self.power}")
        try:
            StoppingRule(noise_var=0.0, p_fa=self.p_fa, max_paths=self.max_paths)
        except ValueError as exc:
            raise ConfigError(f"stopping: {exc}") from None
        if not 0.0 <= self.clock_offset_frac_max < math.inf:
            raise ConfigError(f"{_ini_key('clock_offset_frac_max')} must be finite and "
                              f">= 0, got {self.clock_offset_frac_max}")
        if not 0.0 < self.gain_factor_min <= 1.0:
            raise ConfigError(f"{_ini_key('gain_factor_min')} must be in (0,1]")
        if self.angle_grid_size < 1:
            raise ConfigError(
                f"{_ini_key('angle_grid_size')} must be >= 1, got {self.angle_grid_size}")
        if self.distance_grid_size < 1:
            raise ConfigError(f"{_ini_key('distance_grid_size')} must be >= 1, "
                              f"got {self.distance_grid_size}")
        if not (np.isfinite(self.distance_grid_max_m)
                and 0.0 < self.distance_grid_min_m <= self.distance_grid_max_m):
            raise ConfigError("omp.distance_grid range must be finite and satisfy "
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


# SimConfig field -> ("section.key", kind) of the INI key and CLI flag that set it
CONFIG_KEYS = {f.name: (f.metadata["key"], f.metadata["kind"]) for f in fields(SimConfig)}

# (section, key) of an INI entry -> (SimConfig field, kind), as load_config reads it
_INI_LOOKUP = {tuple(key.split(".")): (name, kind) for name, (key, kind) in CONFIG_KEYS.items()}

# (field, "section.key") of each integer key, which SimConfig type-checks
_INT_KEYS = tuple((name, key) for name, (key, kind) in CONFIG_KEYS.items() if kind is int)


def _ini_key(name: str) -> str:
    """The "section.key" of SimConfig field ``name``, for its error messages."""
    return CONFIG_KEYS[name][0]


def parse_value(raw: str, kind, where: str):
    """Parse one INI value or CLI flag of ``kind``: a type, "floats", "strs" or "bool".

    Lists are separated by commas and/or whitespace, so "10,,20" reads as
    (10.0, 20.0).  A malformed value raises ConfigError prefixed with ``where``.
    """
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
    values: dict = {}
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
        for section in parser.sections():
            for key, raw in parser.items(section):
                entry = _INI_LOOKUP.get((section, key))
                if entry is None:
                    raise ConfigError(f"unknown config key [{section}] {key}")
                name, kind = entry
                values[name] = parse_value(raw, kind, f"[{section}] {key}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        # a file the parser rejects, or that is not text; its message can span lines
        raise ConfigError(f"config file {path!r}: {' '.join(str(exc).split())}") from None
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


# entries of H per chunk of nmse's error sum: 256 KB of complex128, so two
# chunks (the one being freed and the next) stay well under H's size
_NMSE_CHUNK = 1 << 14

# entries per block of estimate rows that nmse builds (or slices) at a time:
# 2 MB of complex128, an eighth of H at 1024/256/1024 and all of it at the
# SimConfig defaults.  Blocks much smaller than this cost a run time: each
# one is a profile_sum call.
_SCORE_BLOCK = 1 << 17


def _sum_squares(x: np.ndarray) -> float:
    """sum |x|^2 without BLAS, whose ``np.vdot`` bits move with the thread count."""
    x = np.ascontiguousarray(x)
    x = (x.view(x.real.dtype) if np.iscomplexobj(x) else x).ravel()
    return float(np.einsum("i,i->", x, x))


def nmse(H_est, H_true: np.ndarray) -> float:
    """||vec(H_est - H_true)||^2 / ||vec(H_true)||^2.

    ``H_est`` is an array of H_true's shape, or the :class:`RowBlocks` of an
    estimate that :func:`estimate` returns, which is built block by block
    and never whole.  Each block is whole subarrays and a whole number of
    chunks; the error energy is summed chunk by chunk in row order, so no
    array of H's size is formed and the sum is the same bits whichever form
    the estimate takes.
    """
    shape = H_est.shape if isinstance(H_est, RowBlocks) else np.shape(H_est)
    if shape != np.shape(H_true):
        raise ValueError(f"H_est has shape {shape}, "
                         f"H_true has shape {np.shape(H_true)}")
    H_true = np.atleast_2d(H_true)
    if not isinstance(H_est, RowBlocks):
        dense = np.atleast_2d(H_est)
        H_est = RowBlocks(dense.shape, 1, lambda r0, r1: dense[r0:r1])
    width = max(1, H_true[0].size)
    chunk = max(1, _NMSE_CHUNK // width)
    ns = H_est.subarray_size
    unit = math.lcm(chunk, ns)
    block = unit * max(1, _SCORE_BLOCK // (unit * width))
    err = energy = 0.0
    for b0 in range(0, len(H_true), block):
        b1 = min(b0 + block, len(H_true))
        rows = H_est.rows(b0 // ns, b1 // ns)
        for start in range(0, b1 - b0, chunk):
            true = H_true[b0 + start:b0 + start + chunk]
            diff = rows[start:start + chunk] - true
            err += _sum_squares(diff)
            # summed chunk by chunk like err, so an all-zero H_est reads exactly 1
            energy += _sum_squares(true)
        del rows  # freed before the next block is built
    if energy == 0.0:
        raise ValueError("true channel is identically zero")
    return err / energy


def nmse_db(H_est, H_true: np.ndarray) -> float:
    return 10.0 * np.log10(nmse(H_est, H_true))


def ls_rows(Y: np.ndarray, combiners: np.ndarray, power: float = 1.0) -> RowBlocks:
    """The minimum-norm LS estimate A^H Y / sqrt(P), as blocks of subarray rows.

    A is block diagonal with rows f_k^H, so subarray k's block of A^H Y is
    the outer product f_k y_k^T; the dense K x N matrix is never formed.
    """
    check_inputs(Y, combiners, power)
    K, ns = combiners.shape
    scale = np.sqrt(power)
    dtype = np.result_type(combiners, Y, scale)
    # numpy divides a complex by a real s as (a + b 0) (1 / s): multiplying
    # by 1 / s gives the same values without the complex division
    inv_scale = 1.0 / scale

    def build(k0: int, k1: int) -> np.ndarray:
        blocks = np.multiply(combiners[k0:k1, :, None], Y[k0:k1, None, :], dtype=dtype)
        blocks *= inv_scale
        return blocks.reshape((k1 - k0) * ns, Y.shape[1])

    return RowBlocks((K * ns, Y.shape[1]), ns, build)


def ls_baseline(Y: np.ndarray, combiners: np.ndarray, power: float = 1.0) -> np.ndarray:
    """Minimum-norm LS estimate A^H Y / sqrt(P); rank-K in an N-dim space.

    The whole of :func:`ls_rows` as one block.
    """
    return ls_rows(Y, combiners, power).build(0, len(combiners))


# One slot for what a trial's runs share, entry name -> (key, value):
#   "channel"      (paths, H, W) of the last (config, trial) drawn;
#   "observation"  (noise_var, Y) of that trial's last SNR;
#   "atoms"        polar OMP's atom table for its last (geometry, polar grid, W).
# A sweep runs every SNR and algorithm of a trial back to back, so each
# trial is synthesized once, each (trial, SNR) observed once and each atom
# table built once, however many algorithms read them.  Keys hold values,
# not identities (a config snapshot, W's bytes), so an input changed in
# place builds afresh.  Every held array is read-only.
_SLOT: dict = {}


def _slot_entry(name: str, key, build):
    """The slot's ``name`` entry if it was built for ``key``; otherwise the old
    entry is dropped first, so two are never held at once, and ``build()``
    makes the new one."""
    if _SLOT.get(name, (None,))[0] != key:
        _SLOT.pop(name, None)
        _SLOT[name] = (key, build())
    return _SLOT[name][1]


def _polar_atom_table(combiners: np.ndarray, geom: ArrayGeometry,
                      angle_grid_size: int, distance_grid: np.ndarray):
    """(theta grid, atoms (G, K), atoms^H, squared atom norms), read-only,
    held in the slot's "atoms" entry."""
    combiners = np.asarray(combiners)
    key = (geom, angle_grid_size, distance_grid.shape, distance_grid.tobytes(),
           combiners.dtype, combiners.shape, combiners.tobytes())
    return _slot_entry("atoms", key, lambda: _build_atom_table(
        combiners, geom, angle_grid_size, distance_grid))


def _build_atom_table(combiners: np.ndarray, geom: ArrayGeometry,
                      angle_grid_size: int, distance_grid: np.ndarray):
    """The table, built one angle (G_d steering vectors) at a time.  The
    antenna offsets are symmetric, so w(-theta) is w(theta) reversed, bit for
    bit; an angle whose grid value is exactly minus an earlier angle's
    reverses that angle's responses instead of calling ``steering_vector``.
    """
    K, n_dist = geom.n_subarrays, distance_grid.size
    theta_grid = (2.0 * np.arange(angle_grid_size) + 1.0) / angle_grid_size - 1.0
    atoms = np.empty((angle_grid_size, n_dist, K), dtype=complex)
    f_h = combiners.conj()
    for i in range((angle_grid_size + 1) // 2):
        w = steering_vector(theta_grid[i], distance_grid[:, None], geom)
        atoms[i] = np.einsum("kn,gkn->gk", f_h, w.reshape(n_dist, K, -1))
        j = angle_grid_size - 1 - i
        if j == i:
            continue
        if theta_grid[j] == -theta_grid[i]:
            w = np.ascontiguousarray(w[:, ::-1])
        else:
            w = steering_vector(theta_grid[j], distance_grid[:, None], geom)
        atoms[j] = np.einsum("kn,gkn->gk", f_h, w.reshape(n_dist, K, -1))
    atoms = atoms.reshape(-1, K)
    atoms_h = atoms.conj()
    norms2 = np.maximum(np.linalg.norm(atoms, axis=1), 1e-300) ** 2
    table = (theta_grid, atoms, atoms_h, norms2)
    for arr in table:
        arr.flags.writeable = False
    return table


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
    with G = G_theta * G_d in theta-major order.  The table depends only on
    (geometry, polar grid, W), so it is held in the trial slot and shared by
    every call with the same three, such as a trial's SNRs; angle -theta is
    built by mirroring theta's steering responses.  Each iteration scores every
    atom by the band energy of its normalized projection,
    ||a_g^H R||^2 / ||a_g||^2, in Gram form a_g^H (R R^H) a_g, so the G x M
    projection is never formed; ties go to the first atom in theta-major
    order.  Only the winner is projected: the delay is fit on its frequency
    series, and the per-subarray gains and residual use the same machinery as
    the main estimator.  Returns (paths, correlations_per_iteration), G for
    each path.
    """
    check_inputs(Y, combiners, power, geom, grid)
    K, M = geom.n_subarrays, grid.n_subcarriers
    if (not isinstance(angle_grid_size, (int, np.integer))
            or isinstance(angle_grid_size, bool) or angle_grid_size < 1):
        raise ValueError(
            f"angle_grid_size must be a positive integer, got {angle_grid_size!r}")
    distance_grid = np.asarray(distance_grid, dtype=float)
    if distance_grid.size == 0:
        raise ValueError("distance_grid is empty")
    if not np.all(np.isfinite(distance_grid) & (distance_grid > 0.0)):
        raise ValueError("distance_grid entries must be finite and positive, "
                         f"got {distance_grid}")
    theta_grid, atoms, atoms_h, norms2 = _polar_atom_table(
        combiners, geom, angle_grid_size, distance_grid)
    n_dist = distance_grid.size

    dictionary = DelayDictionary(M)
    threshold = stopping_threshold(rule.noise_var, M, rule.p_fa)
    resid = np.array(Y, dtype=complex, copy=True)
    kc = (K + 1) // 2 - 1  # DPS's detection row, the middle one at odd K too
    paths: list[PathEstimate] = []

    while len(paths) < rule.max_paths:
        _, _, peak = ml_delay_detect(resid[kc], dictionary)
        if peak <= threshold:
            break
        gram = resid @ resid.conj().T
        scores = np.sum((atoms_h @ gram) * atoms, axis=1).real / norms2
        g = int(np.argmax(scores))
        th_g, d_g = float(theta_grid[g // n_dist]), float(distance_grid[g % n_dist])

        # frequency series along the chosen atom -> delay and range
        series = (atoms_h[g] @ resid) / norms2[g]
        _, tau, _ = ml_delay_detect(series, dictionary)
        rng_m = tau * SPEED_OF_LIGHT / grid.spacing_hz - d_g
        paths.append(fit_and_cancel(resid, th_g, d_g, rng_m, combiners, geom, grid,
                                    power))
    # each iteration scores all G atoms and accepts one path
    return paths, [atoms.shape[0]] * len(paths)


# ---------------------------------------------------------------------------
# path drawing and parameter-error accounting


def draw_paths(cfg: SimConfig, rng: np.random.Generator,
               grid: SubcarrierGrid) -> list[PathParams]:
    """Draw L paths from the configured distributions.

    Redraws any path whose center delay is within one dictionary bin of an
    already drawn path, so multipath NMSE benchmarks run on resolvable sets.
    Explicit lists bypass the draw.
    """
    if cfg.theta_list:
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
        if any(not resolution_predicate(cand, p, grid)[0] for p in paths):
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


def estimate(cfg: SimConfig, algorithm: str, Y: np.ndarray, combiners: np.ndarray,
             noise_var: float):
    """Run one algorithm on an observation: (paths, H_hat, fallback, corr_count).

    The one place a config becomes estimator inputs: ``cfg``'s geometry,
    grid, stopping rule (``noise_var`` with its p_fa and path cap) and
    power, and for polar OMP its dictionary.  H_hat is the estimate's
    :class:`RowBlocks`, which :func:`nmse` scores without forming it whole.
    LS extracts no paths and counts no correlations.
    """
    if algorithm == "ls":
        return [], ls_rows(Y, combiners, cfg.power), False, 0
    geom, grid = cfg.geometry(), cfg.grid()
    rule = StoppingRule(noise_var=noise_var, p_fa=cfg.p_fa, max_paths=cfg.max_paths)
    if algorithm == "dps":
        # the delay profile's mirror pairs need an even K; LS and OMP do not
        if cfg.n_subarrays % 2:
            raise ConfigError(f"{_ini_key('n_subarrays')} must be even for dps, "
                              f"got {cfg.n_subarrays}")
        res = run_dps(Y, combiners, geom, grid, rule, power=cfg.power)
        paths = res.paths
        return paths, reconstruct_rows(paths, geom, grid), res.fallback, res.corr_total
    if algorithm == "omp":
        paths, corr_iters = polar_omp_fallback(
            Y, combiners, geom, grid, rule, cfg.angle_grid_size, cfg.distance_grid(),
            cfg.power
        )
        return paths, reconstruct_rows(paths, geom, grid), False, int(sum(corr_iters))
    raise ConfigError(f"unknown algorithm {algorithm!r}")


def _draw_channel(cfg: SimConfig, trial: int):
    """(paths, H, W) of one trial, with H and W read-only."""
    geom, grid = cfg.geometry(), cfg.grid()
    paths = draw_paths(cfg, trial_rng(cfg.seed, trial, _STREAM_PATHS), grid)
    check_delay_validity(paths, geom, grid)
    H = synthesize_channel(paths, geom, grid)
    W = random_phase_combiner(geom, trial_rng(cfg.seed, trial, _STREAM_COMBINER))
    H.flags.writeable = False
    W.flags.writeable = False
    return tuple(paths), H, W


def _draw_observation(cfg: SimConfig, trial: int, snr_db: float, H, W):
    """(noise_var, Y) of one trial at one SNR, with the configured impairments."""
    geom, grid = cfg.geometry(), cfg.grid()
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
    Y.flags.writeable = False
    return noise_var, Y


def draw_trial(cfg: SimConfig, trial: int, snr_db: float):
    """One trial's scenario: (paths, H, W, noise_var, Y), held in the slot.

    Y carries the configured impairments, so every caller (``run_trial``,
    ``simulate``, ``estimate``) estimates from the same observation.  H, W and
    Y are shared by every caller of the trial and read-only; each call gets a
    new list of the (frozen) paths.
    """
    key = (astuple(cfg), trial)
    if _SLOT.get("channel", (None,))[0] != key:
        # the old trial's Y and atom table go before the new H is drawn, and
        # a draw that raises leaves nothing a later trial could be served
        _SLOT.clear()
    paths, H, W = _slot_entry("channel", key, lambda: _draw_channel(cfg, trial))
    noise_var, Y = _slot_entry("observation", (key, snr_db),
                               lambda: _draw_observation(cfg, trial, snr_db, H, W))
    return list(paths), H, W, noise_var, Y


def run_trial(cfg: SimConfig, trial: int, snr_db: float, algorithm: str
              ) -> RunRecord:
    # every estimator copies Y or only reads it, so it reads the shared draw
    paths, H, W, noise_var, Y = draw_trial(cfg, trial, snr_db)

    t0 = time.perf_counter()
    est_paths, H_hat, fallback, corr_count = estimate(cfg, algorithm, Y, W, noise_var)
    elapsed_s = time.perf_counter() - t0
    score = nmse_db(H_hat, H)
    # building the estimate is part of the run, as when it was formed whole
    elapsed_ms = (elapsed_s + H_hat.build_s) * 1e3

    th_err, d_err, r_err = parameter_errors(est_paths, paths, cfg.grid())
    return RunRecord(
        seed=cfg.seed,
        trial=trial,
        snr_db=snr_db,
        n_antennas=cfg.n_antennas,
        n_subarrays=cfg.n_subarrays,
        n_subcarriers=cfg.n_subcarriers,
        n_paths=len(paths),
        n_paths_est=len(est_paths),
        algorithm=algorithm,
        nmse_db=score,
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
        _SLOT.clear()  # a sweep's last draw does not outlive it
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


def bounds_table(paths, geom: ArrayGeometry, grid: SubcarrierGrid,
                 power: float, noise_var: float, form: str = "corrected") -> str:
    """CSV text of numeric/closed-form bounds, one row per :class:`PathParams`."""
    from .bounds import bounds_report

    lines = [BOUNDS_COLUMNS]
    for path in paths:
        rep = bounds_report(path, geom, grid, power, noise_var, form)
        vals = (
            path.theta, path.dist_m, path.range_m, geom.n_subarrays, geom.n_antennas,
            grid.n_subcarriers, grid.spacing_hz, power, noise_var,
            rep.theta_cb, rep.d_cb, rep.r_cb,
            rep.theta_cb_cf, rep.d_cb_cf, rep.r_cb_cf,
            rep.tau_cb, rep.theta_lb, rep.d_lb, rep.r_lb,
        )
        lines.append(",".join(
            format(v, ".17g") if isinstance(v, float) else str(v) for v in vals
        ))
    return "\n".join(lines) + "\n"
