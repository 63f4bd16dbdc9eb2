"""Message-passing view of the subarray/central-unit processing split.

Each local processing unit (LPU) owns exactly one subarray's combined row and
its own combiner weights; the central unit (CPU) only ever sees scalar delay,
parameter, and gain messages.  ``run_distributed`` runs ``run_dps`` once and
replays its per-iteration record (central peak, delay track, accepted path)
as the messages and per-LPU correlation counters that split implies, so the
result equals ``run_dps`` on the same inputs by construction.  This module
adds the information-flow structure (messages and per-unit counters), not a
second copy of the estimator loop.  The delay seeds hop along
:func:`nfce.estimator.hop_schedule`, the same (source, target) pairs that
``extrapolate_delays`` walks, and the central LPU is
:func:`nfce.estimator.central_index`; the log names LPUs 1-based.

A :class:`Message` is a named tuple.  The replay reads each delay track and
each path's per-LPU gains as Python floats once and builds every message of
the log from those Python scalars, skipping the public constructor's
per-message checks, so a traced run adds little to the run it replays.

The simulation is deterministic and in-process; there is no transport layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ArrayGeometry, SubcarrierGrid
from .estimator import (
    DpsResult,
    Iteration,
    StoppingRule,
    central_index,
    hop_schedule,
    max_hop,
    run_dps,
)

MESSAGE_KINDS = (
    "DelaySeed",
    "DelayReport",
    "ParamBroadcast",
    "GainReport",
    "StopQuery",
    "StopReport",
)

_SCALAR_TYPES = (int, float, complex, np.integer, np.floating, np.complexfloating)


class Message(NamedTuple("_MessageFields", [("iteration", int), ("kind", str),
                                            ("sender", "int | str"), ("payload", tuple)])):
    """One exchange on the LPU/CPU star; payloads are scalars only.

    ``sender`` is a 1-based LPU index or the string ``"cpu"``.  The
    constructor checks the kind and that every payload item is a scalar;
    :func:`_replay_messages` builds its messages from Python scalars with
    ``Message._make``, which skips the checks.
    """

    __slots__ = ()

    def __new__(cls, iteration: int, kind: str, sender: int | str, payload: tuple = ()):
        if kind not in MESSAGE_KINDS:
            raise ValueError(f"unknown message kind {kind!r}")
        for item in payload:
            if not isinstance(item, _SCALAR_TYPES):
                raise TypeError(
                    f"{kind} payload must be scalars, got {type(item).__name__}"
                )
        return super().__new__(cls, iteration, kind, sender, payload)


@dataclass
class DistributedResult(DpsResult):
    """``run_dps``'s result plus its LPU/CPU view: counters and message log.

    ``corr_total`` is the CPU's tally summed from the per-LPU counters, not
    read off the iteration record, so comparing it with ``run_dps``'s checks
    that the two counts agree.
    """

    corr_by_lpu: np.ndarray
    trace: list
    corr_total: int = 0  # a class-level default shadows DpsResult's property


def run_distributed(
    Y: np.ndarray,
    combiners: np.ndarray,
    geom: ArrayGeometry,
    grid: SubcarrierGrid,
    rule: StoppingRule,
    power: float = 1.0,
    trace: bool = False,
) -> DistributedResult:
    """Run the estimator under the LPU/CPU message-passing constraint.

    Exactly equal output to ``run_dps``: it runs ``run_dps`` once and replays
    its iteration record as messages and per-LPU counters.  With
    ``trace=True`` every message is recorded; payloads are always scalars,
    so no message grows with M or N.
    """
    res = run_dps(Y, combiners, geom, grid, rule, power)
    K, M = geom.n_subarrays, grid.n_subcarriers
    kc = central_index(K)
    # the central LPU runs every full-grid detection; every other LPU runs
    # one extrapolation hop per detection that went on to extrapolate
    n_tracked = sum(step.track is not None for step in res.iterations)
    corr_by_lpu = np.full(K, n_tracked * (2 * max_hop(geom, grid) + 1))
    corr_by_lpu[kc] = len(res.iterations) * M
    return DistributedResult(
        **vars(res),
        corr_by_lpu=corr_by_lpu,
        corr_total=int(corr_by_lpu.sum()),
        trace=_replay_messages(res.iterations, K) if trace else [],
    )


def _replay_messages(iterations: list[Iteration], n_subarrays: int) -> list[Message]:
    """The LPU/CPU message log of one ``run_dps`` iteration record.

    Per detection attempt the CPU polls the central LPU's peak; if the loop
    went on, delay seeds hop LPU-to-LPU along the estimator's
    ``hop_schedule`` and every LPU reports its delay; an accepted path is
    broadcast as three scalars and every LPU reports its fitted gain.
    Senders are 1-based.
    """
    kc = central_index(n_subarrays)
    hops = hop_schedule(n_subarrays)
    make = Message._make
    log: list[Message] = []
    for it, step in enumerate(iterations):
        log.append(make((it, "StopQuery", "cpu", ())))
        log.append(make((it, "StopReport", kc + 1, (step.peak,))))
        if step.track is None:
            continue
        taus = step.track.taus_unwrapped.tolist()
        log.append(make((it, "DelayReport", kc + 1, (taus[kc],))))
        for src, tgt in hops:
            log.append(make((it, "DelaySeed", src + 1, (taus[src],))))
            log.append(make((it, "DelayReport", tgt + 1, (taus[tgt],))))
        path = step.path
        if path is None:
            continue
        log.append(make((it, "ParamBroadcast", "cpu",
                         (path.theta, path.dist_m, path.range_m))))
        for k, gain in enumerate(path.lpu_gains.tolist(), start=1):
            log.append(make((it, "GainReport", k, (gain,))))
    return log
