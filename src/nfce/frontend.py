"""Analog combining front end: one RF chain per subarray.

Each subarray applies a constant-modulus combining vector (phase shifters
only, entries of modulus 1/sqrt(subarray_size)) and the receiver observes one
complex sample per subarray per subcarrier.  The same combiner is used across
the whole band, which is exactly why the aperture delay shows up as a
per-subarray delay shift downstream.
"""

from __future__ import annotations

import numpy as np

from nfce.model import ArrayGeometry, SubcarrierGrid, delay_steering


def random_phase_combiner(geom: ArrayGeometry, rng: np.random.Generator) -> np.ndarray:
    """Random phase-shifter bank, shape (n_subarrays, subarray_size).

    Entries are (1/sqrt(ns)) * exp(j phi) with phi uniform on [0, 2pi); each
    row has unit norm so combining never amplifies noise.
    """
    ns = geom.subarray_size
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(geom.n_subarrays, ns))
    return np.exp(1j * phases) / np.sqrt(ns)


def combining_matrix(combiners: np.ndarray) -> np.ndarray:
    """Block-diagonal analog combining matrix A with rows f_k^H, shape (K, N).

    A @ H maps the antenna-domain channel to the per-subarray observation;
    A @ A^H = I_K because each combiner row has unit norm.
    """
    n_sub, ns = combiners.shape
    A = np.zeros((n_sub, n_sub * ns), dtype=complex)
    for k in range(n_sub):
        A[k, k * ns : (k + 1) * ns] = np.conj(combiners[k])
    return A


def combine(H: np.ndarray, combiners: np.ndarray) -> np.ndarray:
    """Noiseless combined observation A @ H without forming A, shape (K, M)."""
    n_sub, ns = combiners.shape
    blocks = H.reshape(n_sub, ns, -1)
    return np.einsum("kn,knm->km", np.conj(combiners), blocks)


def observe(
    H: np.ndarray,
    combiners: np.ndarray,
    power: float,
    noise_var: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Pilot observation Y = sqrt(P) A H + Z, shape (K, M).

    Noise is circular complex Gaussian, variance ``noise_var`` per combined
    sample (i.e. injected after the analog combiner, which preserves the
    variance because the combiner rows are unit-norm).  Its real part, then
    its imaginary part, is drawn into one (K, M) buffer and added to Y in
    place: the same stream as one (2, K, M) draw, at half its size.
    """
    _check_finite_positive("power", power)
    if not (np.isfinite(noise_var) and noise_var >= 0.0):
        raise ValueError(f"noise_var must be finite and nonnegative, got {noise_var!r}")
    Y = combine(H, combiners).astype(complex, copy=False)
    Y *= np.sqrt(power)
    if noise_var > 0.0:
        if rng is None:
            raise ValueError("noise_var > 0 requires an rng")
        scale = np.sqrt(noise_var / 2.0)
        noise = np.empty(Y.shape)
        for part in (Y.real, Y.imag):
            rng.standard_normal(out=noise)
            noise *= scale
            part += noise
    return Y


# entries of A H per chunk of noise_var_for_snr's energy sum
_SUM_CHUNK = 1 << 14


def noise_var_for_snr(
    H: np.ndarray, combiners: np.ndarray, power: float, snr_target_db: float
) -> float:
    """Noise variance that realizes ``snr_target_db`` for this channel draw.

    The signal energy sum |A H|^2 is a numpy reduction, not a BLAS dot
    product, so it does not depend on the BLAS thread count; it runs over
    chunks of rows, so it forms no temporary of A H's size.
    """
    _check_finite_positive("power", power)
    if not np.isfinite(snr_target_db):
        raise ValueError(f"snr_target_db must be finite, got {snr_target_db!r}")
    AH = combine(H, combiners)
    rows = max(1, _SUM_CHUNK // max(1, AH.shape[1]))
    energy = 0.0
    for start in range(0, len(AH), rows):
        part = AH[start:start + rows]
        energy += float(np.sum(part.real * part.real) + np.sum(part.imag * part.imag))
    return power * energy / (AH.size * 10.0 ** (snr_target_db / 10.0))


def _check_finite_positive(name: str, value: float) -> None:
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def apply_impairments(
    Y: np.ndarray,
    grid: SubcarrierGrid,
    carrier_hz: float,
    clock_offsets: np.ndarray | None = None,
    gain_factors: np.ndarray | None = None,
) -> np.ndarray:
    """Per-subarray hardware impairments on an observation.

    ``clock_offsets`` are symbol-fraction timing errors T_k; subarray k's row
    is rotated by the delay-steering phase exp(j 2 pi delta_m T_k) plus the
    carrier phase exp(j 2 pi f_c T_k / df) the timing error induces.
    ``gain_factors`` are per-subarray complex gains applied multiplicatively.
    """
    out = np.array(Y, dtype=complex, copy=True)
    n_sub, n_sc = out.shape
    if n_sc != grid.n_subcarriers:
        raise ValueError("observation width does not match the grid")
    if clock_offsets is not None:
        clock_offsets = np.asarray(clock_offsets, dtype=float)
        if clock_offsets.shape != (n_sub,):
            raise ValueError("need one clock offset per subarray")
        seconds = clock_offsets / grid.spacing_hz
        out *= delay_steering(clock_offsets[:, None], n_sc)
        out *= np.exp(2j * np.pi * carrier_hz * seconds)[:, None]
    if gain_factors is not None:
        gain_factors = np.asarray(gain_factors, dtype=complex)
        if gain_factors.shape != (n_sub,):
            raise ValueError("need one gain factor per subarray")
        out *= gain_factors[:, None]
    return out
