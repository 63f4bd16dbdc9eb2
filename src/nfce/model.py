"""Geometry and wideband channel synthesis for subarrayed uniform linear arrays.

Everything downstream (frontend, estimator, bounds) is built on the quantities
defined here: symmetric index offsets, exact propagation distances, the
frequency profile and the per-subarray delay structure that the estimator
exploits.

The frequency profile p_m(L) = exp(j 2 pi delta_m df L / c) of a path length L
factors as coarse (x) fine: splitting M = A B, delta_{aB+b} = c_a + f_b, so p is
the Kronecker product of A + B exponentials (:func:`profile_factors`).  Nothing
multiplies the factors out into profiles: :func:`profile_sum`, the one kernel
that synthesis and the estimator's reconstruction call, contracts weighted sums
of profiles straight from them, and the estimator's gain fit reads each model
row as a bilinear form in them.

Conventions
-----------
* ``theta`` is the sine of the physical angle, in (-1, 1).
* ``dist_m`` is the distance from the array center to the scatterer (the
  geometry that bends the wavefront across the aperture).
* ``range_m`` is the remaining propagation distance of the path, so the total
  path length seen by antenna ``n`` is ``range_m + d_n(theta, dist_m)``.
* Delays are expressed as dimensionless fractions of the OFDM symbol,
  ``tau = delay_seconds * subcarrier_spacing``; the usable range is [0, 1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def index_offsets(count: int) -> np.ndarray:
    """Symmetric element offsets ``i - (count + 1) / 2`` for ``i = 1..count``.

    For even ``count`` these are half-integers (e.g. count=4 gives
    [-1.5, -0.5, 0.5, 1.5]); the mean is always exactly zero.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    return np.arange(1, count + 1, dtype=float) - (count + 1) / 2.0


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array split into equal contiguous subarrays.

    ``spacing_m=None`` selects half-wavelength spacing at the carrier.
    """

    n_antennas: int
    n_subarrays: int
    carrier_hz: float = 7.0e9
    spacing_m: float | None = None

    def __post_init__(self):
        if self.n_antennas <= 0 or self.n_subarrays <= 0:
            raise ValueError("n_antennas and n_subarrays must be positive")
        if self.n_antennas % self.n_subarrays != 0:
            raise ValueError(
                f"n_subarrays ({self.n_subarrays}) must divide "
                f"n_antennas ({self.n_antennas})"
            )
        if not (math.isfinite(self.carrier_hz) and self.carrier_hz > 0):
            raise ValueError(f"carrier_hz must be finite and positive, got {self.carrier_hz}")
        if self.spacing_m is None:
            object.__setattr__(
                self, "spacing_m", SPEED_OF_LIGHT / (2.0 * self.carrier_hz)
            )
        elif not (math.isfinite(self.spacing_m) and self.spacing_m > 0):
            raise ValueError(f"spacing_m must be finite and positive, got {self.spacing_m}")

    @property
    def subarray_size(self) -> int:
        return self.n_antennas // self.n_subarrays

    @property
    def antenna_offsets(self) -> np.ndarray:
        """Signed antenna offsets delta_{N,n} (unitless, scale by spacing_m)."""
        return index_offsets(self.n_antennas)

    @property
    def subarray_offsets(self) -> np.ndarray:
        """Signed subarray-center offsets delta_{K,k} in units of the
        subarray pitch ``subarray_size * spacing_m``."""
        return index_offsets(self.n_subarrays)

    @property
    def subarray_pitch_m(self) -> float:
        return self.subarray_size * self.spacing_m

    def subarray_slice(self, k: int) -> slice:
        """Row slice of subarray ``k`` (0-based) into length-N arrays."""
        if not 0 <= k < self.n_subarrays:
            raise ValueError(f"subarray index {k} out of range")
        ns = self.subarray_size
        return slice(k * ns, (k + 1) * ns)


@dataclass(frozen=True)
class SubcarrierGrid:
    """OFDM frequency grid: ``n_subcarriers`` tones spaced ``spacing_hz``."""

    n_subcarriers: int
    spacing_hz: float

    def __post_init__(self):
        if self.n_subcarriers <= 0:
            raise ValueError("n_subcarriers must be positive")
        if not (math.isfinite(self.spacing_hz) and self.spacing_hz > 0):
            raise ValueError(f"spacing_hz must be finite and positive, got {self.spacing_hz}")

    @classmethod
    def from_bandwidth(cls, n_subcarriers: int, bandwidth_hz: float) -> "SubcarrierGrid":
        if n_subcarriers <= 0:
            raise ValueError("n_subcarriers must be positive")
        if not (math.isfinite(bandwidth_hz) and bandwidth_hz > 0):
            raise ValueError(f"bandwidth_hz must be finite and positive, got {bandwidth_hz}")
        return cls(n_subcarriers, bandwidth_hz / n_subcarriers)

    @property
    def bandwidth_hz(self) -> float:
        return self.n_subcarriers * self.spacing_hz

    @property
    def freq_offsets_hz(self) -> np.ndarray:
        """Baseband frequency of each subcarrier, symmetric around 0."""
        return index_offsets(self.n_subcarriers) * self.spacing_hz


@dataclass(frozen=True)
class PathParams:
    """One propagation path: sine-angle, bend distance, residual range, gain."""

    theta: float
    dist_m: float
    range_m: float
    gain: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not -1.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie in (-1, 1), got {self.theta}")
        if not 0 < self.dist_m < math.inf:
            raise ValueError(f"dist_m must be positive and finite, got {self.dist_m}")
        if not 0 <= self.range_m < math.inf:
            raise ValueError(f"range_m must be non-negative and finite, got {self.range_m}")

    @property
    def total_m(self) -> float:
        """Center-of-array path length range_m + dist_m."""
        return self.range_m + self.dist_m


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: a cached table is shared by every caller."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=8)
def _antenna_table(geom: ArrayGeometry) -> tuple[np.ndarray, np.ndarray]:
    """(delta, delta^2), delta the antenna offsets in metres.

    :func:`exact_distances`' geometry terms.  Built once per geometry,
    shared by every caller and read-only.
    """
    delta = geom.antenna_offsets * geom.spacing_m
    return _read_only(delta, delta * delta)


@functools.lru_cache(maxsize=8)
def _subarray_table(geom: ArrayGeometry) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """(pitch, 2 delta, delta pitch, delta^2 pitch^2), delta the subarray offsets.

    :func:`subarray_centers`' geometry terms, each formed as that function's
    expressions form it, so the products round the same.  Built once per
    geometry, shared by every caller and read-only.
    """
    pitch = geom.subarray_pitch_m
    delta = geom.subarray_offsets
    return (pitch, *_read_only(2.0 * delta, delta * pitch, delta * delta * pitch * pitch))


def exact_distances(theta: float, dist_m: float, geom: ArrayGeometry) -> np.ndarray:
    """Per-antenna propagation distance d_n for a spherical wavefront.

    d_n = sqrt(d^2 - 2 d delta_n s theta + delta_n^2 s^2), the law of cosines
    with the source at distance ``dist_m`` and sine-angle ``theta`` from the
    array normal.
    """
    delta, delta_sq = _antenna_table(geom)
    return np.sqrt(dist_m * dist_m - 2.0 * dist_m * delta * theta + delta_sq)


def steering_vector(theta: float, dist_m: float, geom: ArrayGeometry) -> np.ndarray:
    """Near-field array response at the carrier, unit-modulus entries.

    w_n = exp(j 2 pi f_c (d_n - d) / c) with the exact spherical distances.
    A column of distances, shape (G, 1), gives one response per row.
    """
    dd = exact_distances(theta, dist_m, geom) - dist_m
    return np.exp(2j * np.pi * geom.carrier_hz / SPEED_OF_LIGHT * dd)


@functools.lru_cache(maxsize=8)
def _ramp_split(count: int):
    """(A, j * [c, f]) with c[a] + f[b] = index_offsets(count)[a*B + b], count = A B.

    B is the largest divisor of ``count`` not above its square root, so a
    prime count gives B = 1 and f = [0].  The array is shared by every
    caller, hence read-only.
    """
    inner = max(d for d in range(1, math.isqrt(count) + 1) if count % d == 0)
    outer = count // inner
    coarse = (np.arange(outer) - (outer - 1) / 2.0) * inner
    fine = np.arange(inner) - (inner - 1) / 2.0
    j_offsets = 1j * np.concatenate([coarse, fine])
    j_offsets.flags.writeable = False
    return outer, j_offsets


@functools.lru_cache(maxsize=8)
def _half_ramps(count: int):
    """(A, j h, moves): the exponents :func:`profile_factors` evaluates, and where each lands.

    Both offset sets of :func:`_ramp_split` are symmetric about 0: offset
    i < n/2 is minus offset n-1-i.  ``h`` is the non-negative half of c
    followed by that of f.  Each set has one move (dst, src, dst_neg,
    src_neg) of slices along the last axis: factor entries ``dst`` are the
    exponentials ``src``, and entries ``dst_neg`` are the conjugates of the
    exponentials ``src_neg`` (their mirrors, walked backwards).  The array
    is shared by every caller, hence read-only.
    """
    outer, j_offsets = _ramp_split(count)
    halves, moves, start = [], [], 0
    for base, stop in ((0, outer), (outer, j_offsets.size)):
        n_neg = (stop - base) // 2
        halves.append(j_offsets[base + n_neg:stop])
        end = start + stop - base - n_neg
        moves.append((slice(base + n_neg, stop), slice(start, end), slice(base, base + n_neg),
                      slice(end - 1, end - n_neg - 1 if end > n_neg else None, -1)))
        start = end
    j_half = np.concatenate(halves)
    j_half.flags.writeable = False
    return outer, j_half, tuple(moves)


def profile_factors(length_m, grid: SubcarrierGrid) -> tuple[np.ndarray, np.ndarray]:
    """Kronecker factors (coarse (..., A), fine (..., B)) of the frequency profile.

    The profile of a propagation length L, p_m = exp(j 2 pi delta_m df L / c),
    is kron(coarse, fine) along the last axis, M = A B: with phi = 2 pi df L / c
    the factors are exp(j phi c) and exp(j phi f) of :func:`_ramp_split`.
    ``length_m`` is a length or an array of them; the factors run along a new
    last axis.  Both offset sets are symmetric about 0, so only their
    non-negative halves are exponentiated, both in one product and one
    ``np.exp`` (:func:`_half_ramps`), and each negative offset's entry is its
    mirror's conjugate, exp(-j phi o) = exp(j phi o)^*: the same bits as
    exponentiating every offset.
    """
    outer, j_half, moves = _half_ramps(grid.n_subcarriers)
    phi = 2.0 * np.pi * grid.spacing_hz / SPEED_OF_LIGHT * np.asarray(length_m, dtype=float)
    exps = phi[..., None] * j_half
    np.exp(exps, out=exps)
    e = np.empty(phi.shape + (grid.n_subcarriers // outer + outer,), dtype=complex)
    for dst, src, dst_neg, src_neg in moves:
        e[..., dst] = exps[..., src]
        np.conjugate(exps[..., src_neg], out=e[..., dst_neg])
    return e[..., :outer], e[..., outer:]


# Entries of one chunk's coarse-times-weights stack in profile_sum: 2^13
# complex entries, about 128 KB.
_PROFILE_CHUNK_ENTRIES = 2**13


def profile_sum(weights, lengths, grid: SubcarrierGrid, out=None) -> np.ndarray:
    """Weighted profile sums S[g, r] = sum_l weights[g, r, l] p(lengths[g, l]), shape (G, R, M).

    ``weights`` is (G, R, L) and ``lengths`` (G, L).  With p = kron(coarse,
    fine), S[g, r] viewed as an A x B matrix is sum_l weights[g, r, l]
    coarse[g, l] fine[g, l]^T, so each chunk of groups is one batched product
    (c, R A, L) @ (c, L, B) written straight into ``out`` (C-contiguous, made
    when None); no profile is formed.  Chunks hold about
    ``_PROFILE_CHUNK_ENTRIES`` coarse-times-weights entries.
    """
    G, R, L = np.shape(weights)
    M = grid.n_subcarriers
    A = _ramp_split(M)[0]
    if out is None:
        out = np.empty((G, R, M), dtype=complex)
    blocks = out.reshape(G, R * A, M // A)  # view: blocks[g] is S[g] as R A x B
    chunk = max(1, _PROFILE_CHUNK_ENTRIES // (R * A * L))
    left = np.empty((min(chunk, G), R, A, L), dtype=complex)
    for g0 in range(0, G, chunk):
        gs = slice(g0, g0 + chunk)
        coarse, fine = profile_factors(lengths[gs], grid)  # (c, L, A), (c, L, B)
        part = left[: coarse.shape[0]]
        np.multiply(weights[gs, :, None, :], coarse.transpose(0, 2, 1)[:, None], out=part)
        np.matmul(part.reshape(-1, R * A, L), fine, out=blocks[gs])
    return out


@functools.lru_cache(maxsize=8)
def _delay_ramp(n_subcarriers: int) -> np.ndarray:
    """j 2 pi delta_m, :func:`delay_steering`'s exponent per unit delay; shared and read-only."""
    ramp = 2j * np.pi * index_offsets(n_subcarriers)
    ramp.flags.writeable = False
    return ramp


def delay_steering(tau, n_subcarriers: int) -> np.ndarray:
    """Delay-domain steering vector b(tau)_m = exp(j 2 pi delta_m tau).

    ``tau`` is a dimensionless symbol-fraction delay, or an array of them
    that broadcasts against the subcarrier axis (shape (K, 1) gives K rows);
    b is 1-periodic in tau up to a global sign when ``n_subcarriers`` is even
    (half-integer offsets).
    """
    return np.exp(_delay_ramp(n_subcarriers) * tau)


def combined_gain(path: PathParams, geom: ArrayGeometry) -> complex:
    """Path gain with the center-of-array carrier phase folded in."""
    return path.gain * np.exp(
        2j * np.pi * geom.carrier_hz / SPEED_OF_LIGHT * path.total_m
    )


def subarray_centers(theta: float, dist_m: float, geom: ArrayGeometry):
    """Observed geometry of each subarray: center distance and sine-angle.

    Treating subarray k's center as a small array of its own, the wavefront
    there is locally described by

        d~_k = sqrt(d^2 - 2 delta_k d ns s theta + delta_k^2 ns^2 s^2)
        theta~_k = (d theta - delta_k ns s) / d~_k

    Returns ``(dist_k, theta_k)`` arrays of length n_subarrays.
    """
    pitch, two_delta, delta_pitch, delta_sq_pitch_sq = _subarray_table(geom)
    dist_k = np.sqrt(dist_m * dist_m - two_delta * dist_m * pitch * theta + delta_sq_pitch_sq)
    theta_k = (dist_m * theta - delta_pitch) / dist_k
    return dist_k, theta_k


def antenna_lengths(paths, geom: ArrayGeometry) -> np.ndarray:
    """Per-antenna path lengths r_l + d_n(theta_l, d_l), shape (N, L): column l is path l's."""
    lengths = np.empty((geom.n_antennas, len(paths)))
    for l, path in enumerate(paths):
        lengths[:, l] = path.range_m + exact_distances(path.theta, path.dist_m, geom)
    return lengths


def synthesize_channel(paths, geom: ArrayGeometry, grid: SubcarrierGrid) -> np.ndarray:
    """Multipath frequency-domain channel H of shape (N, M).

    H[n, m] = sum_l g_l exp(j 2 pi f_m (r_l + d_n) / c) per path: row n is
    sum_l rho_l w_ln p(r_l + d_n), with rho_l the gain carrying the
    center-of-array carrier phase, w_l the carrier steering vector and p the
    frequency profile of antenna n's own path length, so the beam squint
    across the whole aperture is kept.  The rows are one :func:`profile_sum`.
    """
    if not paths:
        return np.zeros((geom.n_antennas, grid.n_subcarriers), dtype=complex)
    weights = np.stack(
        [combined_gain(path, geom) * steering_vector(path.theta, path.dist_m, geom)
         for path in paths], axis=-1)  # (N, L)
    H = np.empty((geom.n_antennas, grid.n_subcarriers), dtype=complex)
    profile_sum(weights[:, None, :], antenna_lengths(paths, geom), grid,
                out=H.reshape(geom.n_antennas, 1, grid.n_subcarriers))
    return H


def antenna_delays(paths, geom: ArrayGeometry, grid: SubcarrierGrid) -> np.ndarray:
    """Per-antenna symbol-fraction delays tau_nl = df (r_l + d_n) / c, shape (N, L)."""
    return grid.spacing_hz / SPEED_OF_LIGHT * antenna_lengths(paths, geom)


def subarray_delay_profile(
    theta: float,
    dist_m: float,
    range_m: float,
    geom: ArrayGeometry,
    grid: SubcarrierGrid,
    model: str = "exact",
) -> np.ndarray:
    """Symbol-fraction delay observed at each subarray center.

    Uses the exact spherical subarray-center distances; ``model`` names that
    wavefront model and accepts only ``"exact"``.
    """
    if model != "exact":
        raise ValueError(f"unknown wavefront model {model!r}")
    dist_k, _ = subarray_centers(theta, dist_m, geom)
    return grid.spacing_hz / SPEED_OF_LIGHT * (range_m + dist_k)


def check_delay_validity(paths, geom: ArrayGeometry, grid: SubcarrierGrid) -> float:
    """Largest per-antenna delay across paths; raises if it reaches one symbol.

    Delays at or beyond one symbol-fraction alias onto the grid and the
    model stops being identifiable, so synthesis refuses to proceed.
    """
    worst = float(antenna_delays(paths, geom, grid).max(initial=0.0))
    if worst >= 1.0:
        raise ValueError(
            f"path delay {worst:.3f} symbol-fractions >= 1; reduce ranges or "
            f"subcarrier spacing"
        )
    return worst
