"""Suite-wide fixtures and hypothesis tuning."""
from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, settings

from fracadrc import AdrcVariant, run_closed_loop

from helpers import ref_loop

# Deterministic property tests: same examples every run, no flaky deadlines.
settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def ref_trio():
    """One unit-step run of each controller variant at the reference point.

    The wall clock is read around each actual simulation so downstream
    runtime assertions measure real work, not fixture caching.
    """
    out = {}
    for variant in AdrcVariant:
        cfg = ref_loop(variant=variant)
        t0 = time.perf_counter()
        traj = run_closed_loop(cfg, v_d=1.0)
        out[variant.value] = {
            "trajectory": traj,
            "elapsed_s": time.perf_counter() - t0,
        }
    return out
