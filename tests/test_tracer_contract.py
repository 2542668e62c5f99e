"""The benchmark tracer (perfbench/tracing.py) wraps the package's public
functions from outside.  This checks that every name it patches still
exists and that the counts it reports for a known run are exact."""
from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing_module():
    # load by path without writing bytecode next to the benchmark's files
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _bindings(targets):
    """Every function the package's modules and the traced classes bind."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "fracadrc" or name.startswith("fracadrc."):
            out.update({(name, attr): value
                        for attr, value in vars(module).items()
                        if callable(value)})
    for modname, owner, _, _ in targets:
        if owner is not None:
            cls = getattr(sys.modules[modname], owner)
            out.update({(modname, owner, attr): value
                        for attr, value in vars(cls).items()})
    return out


def test_tracer_counts_one_short_run_per_variant(tracing_module):
    for modname in {target[0] for target in tracing_module.TARGETS}:
        importlib.import_module(modname)
    from fracadrc import control, experiments

    before = _bindings(tracing_module.TARGETS)
    tracer = tracing_module.Tracer()
    try:
        tracer.install()
        for variant in control.AdrcVariant:
            params = {**experiments.DEFAULT_PARAMS, "horizon": 0.05}
            control.run_closed_loop(*experiments.make_loop(params, variant))
    finally:
        tracer.uninstall()

    # 400 steps each: iadrc sums the plant history only, fadrc adds two
    # observer histories and ifadrc one
    assert tracer.calls("fracops.tail_sum") == 2400
    assert tracer.calls("observers.loop_step") == 1200
    assert tracer.calls("plant.step") == 1200
    assert tracer.counters["control.steps"] == 1200
    after = _bindings(tracing_module.TARGETS)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
