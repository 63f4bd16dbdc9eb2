"""The per-geometry tables the DPS iteration reads instead of rebuilding them.

Each table is cached, read-only, shared by every call, and holds the same
bits as the per-call expression it replaces; emptying every cache leaves a
run's iteration record unchanged.
"""
import numpy as np
import pytest

from nfce import bounds, cli, estimator, frontend, harness, model, planar, runtime
from nfce.estimator import _fit_basis, run_dps
from nfce.harness import SimConfig
from nfce.model import (
    ArrayGeometry,
    _antenna_table,
    _delay_ramp,
    _half_ramps,
    _ramp_split,
    _subarray_table,
    index_offsets,
)

# (N, K): even, odd and prime antenna and subarray counts
GEOMETRIES = [(64, 16), (48, 3), (35, 5), (7, 7), (26, 13)]
COUNTS = [1, 2, 3, 9, 13, 16, 97, 128, 1024]


def _shared_read_only(build, *args):
    """``build(*args)``, checked to be the one cached object with read-only arrays."""
    table = build(*args)
    assert build(*args) is table
    for part in table if isinstance(table, tuple) else (table,):
        if isinstance(part, np.ndarray):
            assert not part.flags.writeable
    return table


@pytest.mark.parametrize("n, k", GEOMETRIES)
def test_geometry_tables_match_their_expressions(n, k):
    geom = ArrayGeometry(n, k)
    delta, delta_sq = _shared_read_only(_antenna_table, geom)
    want = geom.antenna_offsets * geom.spacing_m
    assert np.array_equal(delta, want) and np.array_equal(delta_sq, want * want)

    pitch, two_delta, delta_pitch, delta_sq_pitch_sq = _shared_read_only(
        _subarray_table, geom)
    sub = geom.subarray_offsets
    assert pitch == geom.subarray_pitch_m
    assert np.array_equal(two_delta, 2.0 * sub)
    assert np.array_equal(delta_pitch, sub * pitch)
    assert np.array_equal(delta_sq_pitch_sq, sub * sub * pitch * pitch)

    x, x_sq, fit_quad, fit_line = _shared_read_only(_fit_basis, geom)
    want_x = index_offsets(k) * geom.subarray_pitch_m
    assert np.array_equal(x, want_x) and np.array_equal(x_sq, want_x * want_x)
    # each LS operator is the pseudo-inverse of its Vandermonde basis with
    # lstsq(rcond=None)'s cutoff, max(K, columns) eps
    for op, cols in ((fit_quad, 3), (fit_line, 2)):
        want = np.linalg.pinv(np.vander(want_x, cols, increasing=True),
                              rcond=max(k, cols) * np.finfo(float).eps)
        assert op.shape == (cols, k) and np.array_equal(op, want)


@pytest.mark.parametrize("count", COUNTS)
def test_count_tables_match_their_expressions(count):
    ramp = _shared_read_only(_delay_ramp, count)
    assert np.array_equal(ramp, 2j * np.pi * index_offsets(count))

    outer, j_half, moves = _shared_read_only(_half_ramps, count)
    outer_split, j_offsets = _ramp_split(count)
    assert outer == outer_split
    # the non-negative half of each factor's offsets, coarse then fine
    halves = [j_offsets[s][j_offsets[s].size // 2:]
              for s in (slice(0, outer), slice(outer, None))]
    assert np.array_equal(j_half, np.concatenate(halves))
    # the moves place every exponential, or its conjugate, in the factor
    placed = np.full(j_offsets.size, np.nan, dtype=complex)
    for dst, src, dst_neg, src_neg in moves:
        placed[dst] = j_half[src]
        placed[dst_neg] = -j_half[src_neg]
    assert np.array_equal(placed, j_offsets)


def _a12_scenario(equivalence):
    return equivalence.a12_scenario(11)


def _default_scenario(equivalence):
    return equivalence.harness_scenario(SimConfig(), 10.0)


def _record(res):
    """Every fact of a run's iteration record, as exactly comparable values."""
    steps = []
    for step in res.iterations:
        track, path = step.track, step.path
        steps.append((
            step.peak, step.corr,
            None if track is None else (track.kappas.tobytes(),
                                        track.taus_unwrapped.tobytes()),
            None if path is None else (path.theta, path.dist_m, path.range_m,
                                       path.lpu_gains.tobytes(), path.clamped,
                                       path.refined),
        ))
    return steps, res.stop_reason, res.threshold


def _nfce_caches():
    modules = (bounds, cli, estimator, frontend, harness, model, planar, runtime)
    return {getattr(mod, name) for mod in modules for name in dir(mod)
            if hasattr(getattr(mod, name), "cache_clear")}


@pytest.mark.parametrize("scenario", [_a12_scenario, _default_scenario])
def test_emptied_caches_leave_the_iteration_record_unchanged(scenario, equivalence):
    cfg, _, W, Y, rule = scenario(equivalence)
    args = (Y, W, cfg.geometry(), cfg.grid(), rule, cfg.power)
    first = _record(run_dps(*args))
    caches = _nfce_caches()
    assert {_antenna_table, _subarray_table, _half_ramps, _delay_ramp,
            _fit_basis} <= caches
    for cache in caches:
        cache.cache_clear()
    assert _record(run_dps(*args)) == first
    assert len(first[0]) > 1  # the scenario extracts at least one path
