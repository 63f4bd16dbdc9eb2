"""Shared fixtures and references.

Fixtures: a recorder that prints one line per acceptance check, and the
tools (equivalence check, benchmark record) loaded as modules.  References: formulas that only tests
use (the delay dictionary's grid points, the Fresnel wavefront expansion
and a matched combiner), imported with
``from conftest import ...``.
"""
import importlib.util
import pathlib

import numpy as np
import pytest

from nfce.model import SPEED_OF_LIGHT, steering_vector

_acceptance_lines = []


@pytest.fixture
def acceptance():
    """Record a one-line measured result, echoed after the run."""

    def record(line: str):
        _acceptance_lines.append(line)

    return record


def _load_tool(name: str):
    """tools/<name>.py, which lives outside the package, as a module."""
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def equivalence():
    """tools/equivalence.py."""
    return _load_tool("equivalence")


@pytest.fixture(scope="session")
def bench_record():
    """tools/bench_record.py."""
    return _load_tool("bench_record")


def delay_grid(dictionary):
    """A DelayDictionary's grid points tau_m = (2m-1)/(2M), m = 1..M."""
    m = np.arange(1, dictionary.size + 1, dtype=float)
    return (2.0 * m - 1.0) / (2.0 * dictionary.size)


def fresnel_deltas(theta, dist_m, geom):
    """Second-order (Fresnel) expansion of d_n - dist_m across the aperture."""
    delta = geom.antenna_offsets * geom.spacing_m
    return -delta * theta + delta * delta * (1.0 - theta * theta) / (2.0 * dist_m)


def fresnel_delay_profile(theta, dist_m, range_m, geom, grid):
    """Symbol-fraction delay at each subarray center under the quadratic
    expansion

        eta_k = r + d - delta_k s' theta + delta_k^2 s'^2 (1-theta^2) / (2 d)

    whose affine-plus-even structure in delta_k is what the decoupling
    stages invert.
    """
    pitch = geom.subarray_pitch_m
    delta = geom.subarray_offsets
    total = (
        range_m
        + dist_m
        - delta * pitch * theta
        + delta * delta * pitch * pitch * (1.0 - theta * theta) / (2.0 * dist_m)
    )
    return grid.spacing_hz / SPEED_OF_LIGHT * total


def matched_combiner(path, geom):
    """Combiner matched to one path's wavefront at the carrier.

    Row k is the conjugate-free projection target: f_k = (1/sqrt(ns)) *
    exp(j 2 pi f_c total / c) * w_k, i.e. the subarray slice of the path's
    steering vector with the absolute carrier phase restored.  Then f_k^H
    applied to the path's carrier response yields sqrt(ns) coherently.
    """
    w = steering_vector(path.theta, path.dist_m, geom)
    phase = np.exp(2j * np.pi * geom.carrier_hz / SPEED_OF_LIGHT * path.total_m)
    f = phase * w / np.sqrt(geom.subarray_size)
    return f.reshape(geom.n_subarrays, geom.subarray_size)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance summary")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
