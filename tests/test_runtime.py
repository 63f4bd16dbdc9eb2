"""Message-passing runtime: protocol shape, counters, and exact equivalence."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nfce.model import (
    ArrayGeometry,
    PathParams,
    SubcarrierGrid,
    synthesize_channel,
)
from nfce.frontend import observe, random_phase_combiner
from nfce.estimator import (
    DpsResult,
    StoppingRule,
    SubarrayDelayTrack,
    central_index,
    hop_schedule,
    max_hop,
    run_dps,
)
from nfce.runtime import (
    MESSAGE_KINDS,
    Message,
    run_distributed,
)


def test_message_validation():
    m = Message(2, "DelaySeed", 5, (0.25,))
    assert m.iteration == 2
    with pytest.raises(ValueError):
        Message(0, "DelayDump", 1, ())
    with pytest.raises(TypeError):
        Message(0, "DelayReport", 1, (np.zeros(4),))
    with pytest.raises(TypeError):
        Message(0, "GainReport", 1, ([1.0, 2.0],))


def test_message_is_immutable():
    m = Message(0, "GainReport", 3, (1.0 + 2.0j,))
    with pytest.raises(AttributeError):
        m.payload = ()
    with pytest.raises(AttributeError):
        m.kind = "StopQuery"
    assert m == Message(0, "GainReport", 3, (1.0 + 2.0j,))


def test_replayed_messages_are_valid_and_hold_python_scalars(equivalence):
    # the replay skips the validating constructor, so every message it logs
    # must pass that constructor unchanged and carry plain Python scalars
    for seed in range(30):
        cfg, _, W, Y, rule = equivalence.a12_scenario(seed)
        res = run_distributed(Y, W, cfg.geometry(), cfg.grid(), rule, trace=True)
        assert res.trace
        for msg in res.trace:
            assert type(msg) is Message
            assert Message(*msg) == msg
            assert type(msg.iteration) is int
            assert all(type(item) in (int, float, complex) for item in msg.payload)


def test_replayed_delay_messages_follow_the_hop_schedule(equivalence):
    # per extrapolating iteration: the center's report, then per hop of
    # hop_schedule a seed from its source and a report from its target,
    # with 1-based senders and each sender's own delay as the payload
    for seed in range(3):
        cfg, _, W, Y, rule = equivalence.a12_scenario(seed)
        K = cfg.n_subarrays
        res = run_distributed(Y, W, cfg.geometry(), cfg.grid(), rule, trace=True)
        kc = central_index(K)
        pairs = [("DelayReport", kc)] + [
            msg for src, tgt in hop_schedule(K)
            for msg in (("DelaySeed", src), ("DelayReport", tgt))
        ]
        assert any(step.track is not None for step in res.iterations)
        for it, step in enumerate(res.iterations):
            got = [m for m in res.trace
                   if m.iteration == it and m.kind in ("DelaySeed", "DelayReport")]
            if step.track is None:
                assert got == []
                continue
            taus = step.track.taus_unwrapped.tolist()
            assert [(m.kind, m.sender, m.payload) for m in got] == [
                (kind, k + 1, (taus[k],)) for kind, k in pairs
            ]


def test_odd_subarray_count_is_refused_before_any_detection(monkeypatch):
    geom = ArrayGeometry(40, 5, 7e9)
    grid = SubcarrierGrid.from_bandwidth(64, 600e6)
    rng = np.random.default_rng(4)
    W = random_phase_combiner(geom, rng)
    Y = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))

    def no_detection(*args):
        raise AssertionError("a detection ran")

    monkeypatch.setattr("nfce.estimator.ml_delay_detect", no_detection)
    for run in (run_dps, run_distributed):
        with pytest.raises(ValueError,
                           match="decoupling requires an even subarray count, got 5"):
            run(Y, W, geom, grid, StoppingRule(noise_var=1.0))


def _track(taus, grid_size):
    taus = np.asarray(taus, dtype=float)
    return SubarrayDelayTrack(taus, np.zeros(taus.size, dtype=int), 1, 0, grid_size)


def test_detect_fallback():
    # the all-equal fallback check lives on the delay track alone
    taus = (np.array([7, 7, 7, 7]) + 0.5) / 16  # bin 7 of 16
    assert _track(taus, 16).all_equal()
    taus[2] += 1 / 16  # bin 8
    assert not _track(taus, 16).all_equal()
    # off-grid delays are converted to bins
    assert _track(np.full(5, 0.31), 16).all_equal()
    assert not _track([0.31, 0.38], 16).all_equal()
    # an unwrapped track that leaves [0, 1) compares wrapped bins
    assert _track([0.31, 1.31, -0.69], 16).all_equal()
    # bin 0 holds [0, 1/16): these cross tau = 1 and wrap onto it, and a
    # track that leaves it only at the last or only at the first subarray differs
    on_bin_0 = [1.0 + 0.5 / 16, 0.5 / 16, 1.0 + 0.2 / 16, 0.9 / 16]
    assert _track(on_bin_0, 16).all_equal()
    assert not _track(on_bin_0[:-1] + [1.5 / 16], 16).all_equal()
    assert not _track([1.5 / 16] + on_bin_0[1:], 16).all_equal()
    # a delay just below 0 wraps to tau % 1 == 1.0 exactly, which rounds to
    # bin M, i.e. bin 0 again
    assert _track([-1e-20, 0.5 / 16], 16).all_equal()
    assert _track([0.5 / 16, -1e-20], 16).all_equal()


# a delay as (whole turns, bin, position in the bin): position 0.0 is the
# bin's lower edge, 0.5 its grid point; the turns move it below 0 or past 1
_wrapped_delay = st.tuples(
    st.integers(-2, 2), st.integers(-1, 1),
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(M=st.sampled_from([2, 3, 16, 97, 128, 1024]), base=st.integers(0, 1023),
       delays=st.lists(_wrapped_delay, min_size=1, max_size=12))
@example(M=16, base=0, delays=[(1, 0, 0.5), (0, 0, 0.5), (-1, 0, 0.0), (2, 0, 1.0)])
@example(M=16, base=15, delays=[(0, 0, 1.0), (-1, 0, 0.0), (0, 0, 0.5)])
def test_all_equal_matches_the_wrapped_grid_indices(M, base, delays):
    taus = [turns + (base + step + pos) / M for turns, step, pos in delays]
    track = _track(taus, M)
    assert track.all_equal() == (len(set(track.grid_indices.tolist())) == 1)


def _scenario(seed, n_paths=1, snr=None, N=128, K=32, M=128):
    geom = ArrayGeometry(N, K, 7e9)
    grid = SubcarrierGrid.from_bandwidth(M, 600e6)
    rng = np.random.default_rng(seed)
    paths = [
        PathParams(
            rng.uniform(-0.8, 0.8),
            rng.uniform(10.0, 20.0),
            rng.uniform(10.0, 20.0),
            rng.standard_normal() + 1j * rng.standard_normal(),
        )
        for _ in range(n_paths)
    ]
    H = synthesize_channel(paths, geom, grid)
    W = random_phase_combiner(geom, rng)
    scale = float(np.mean(np.abs(observe(H, W, 1.0, 0.0)) ** 2))
    if snr is None:
        Y = observe(H, W, 1.0, 0.0)
        nv = 1e-2 * scale
    else:
        nv = scale / 10 ** (snr / 10.0)
        Y = observe(H, W, 1.0, nv, rng=rng)
    return geom, grid, W, Y, StoppingRule(noise_var=nv, p_fa=1e-3, max_paths=8)


def _results_equal(a, b):
    assert a.n_paths == b.n_paths
    assert a.fallback == b.fallback
    assert a.rejected == b.rejected
    assert a.stop_reason == b.stop_reason
    assert a.corr_per_iter == b.corr_per_iter
    assert a.corr_total == b.corr_total
    for ea, eb in zip(a.paths, b.paths):
        assert ea.theta == eb.theta  # bitwise: same kernels, same order
        assert ea.dist_m == eb.dist_m
        assert ea.range_m == eb.range_m
        assert ea.gain == eb.gain
        np.testing.assert_array_equal(ea.lpu_gains, eb.lpu_gains)
        np.testing.assert_array_equal(
            ea.track.taus_unwrapped, eb.track.taus_unwrapped
        )


def test_run_distributed_equals_run_dps():
    for seed in range(6):
        geom, grid, W, Y, rule = _scenario(seed, n_paths=1 + seed % 3,
                                           snr=None if seed % 2 else 15.0)
        ref = run_dps(Y, W, geom, grid, rule)
        dist = run_distributed(Y, W, geom, grid, rule)
        assert isinstance(dist, DpsResult)
        _results_equal(dist, ref)


def test_trace_message_discipline():
    geom, grid, W, Y, rule = _scenario(7, n_paths=2)
    res = run_distributed(Y, W, geom, grid, rule, trace=True)
    assert res.trace, "expected a nonempty message log"
    M = grid.n_subcarriers
    for msg in res.trace:
        assert msg.kind in MESSAGE_KINDS
        assert len(msg.payload) < M  # nothing of dimension M or larger
        assert len(msg.payload) <= 3
        for item in msg.payload:
            assert np.isscalar(item) or isinstance(item, (int, float, complex))
    # the CPU only polls for the stop test and broadcasts accepted paths
    assert {msg.kind for msg in res.trace if msg.sender == "cpu"} == {
        "StopQuery", "ParamBroadcast"}


def test_trace_counts_per_iteration():
    geom, grid, W, Y, rule = _scenario(11, n_paths=1)
    res = run_distributed(Y, W, geom, grid, rule, trace=True)
    K = geom.n_subarrays
    n_iter = len(res.corr_per_iter)
    by_kind = {k: 0 for k in MESSAGE_KINDS}
    for m in res.trace:
        by_kind[m.kind] += 1
    # every completed iteration: K-1 seeds, K delay reports, 1 broadcast,
    # K gain reports; every detection attempt: 1 query + 1 report
    assert by_kind["DelaySeed"] == n_iter * (K - 1)
    assert by_kind["DelayReport"] == n_iter * K
    assert by_kind["ParamBroadcast"] == res.n_paths
    assert by_kind["GainReport"] == res.n_paths * K
    assert by_kind["StopQuery"] == by_kind["StopReport"] == n_iter + 1


def test_corr_by_lpu_accounting():
    geom, grid, W, Y, rule = _scenario(13, n_paths=1)
    res = run_distributed(Y, W, geom, grid, rule)
    K, M = geom.n_subarrays, grid.n_subcarriers
    hop = max_hop(geom, grid)
    kc = central_index(K)
    n_iter = len(res.corr_per_iter)
    expected = np.full(K, n_iter * (2 * hop + 1))
    # the central LPU runs the full-grid detection instead, once per
    # detection attempt (iterations plus the final stopping check)
    expected[kc] = (n_iter + 1) * M
    np.testing.assert_array_equal(res.corr_by_lpu, expected)
    # the CPU's tally is summed from the counters and matches the record's
    assert res.corr_total == res.corr_by_lpu.sum() == run_dps(Y, W, geom, grid, rule).corr_total


def test_run_distributed_pure_noise():
    geom = ArrayGeometry(64, 16, 7e9)
    grid = SubcarrierGrid.from_bandwidth(64, 600e6)
    W = random_phase_combiner(geom, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    Y = (rng.standard_normal((16, 64)) + 1j * rng.standard_normal((16, 64))) / np.sqrt(2)
    res = run_distributed(Y, W, geom, grid, StoppingRule(noise_var=1.0), trace=True)
    assert res.n_paths == 0
    assert res.stop_reason == "threshold"
    kinds = [m.kind for m in res.trace]
    assert kinds == ["StopQuery", "StopReport"]
