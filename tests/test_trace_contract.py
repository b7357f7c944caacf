"""The repo benchmark's tracer contract, checked in tier-1.

``perfbench/tracing.py`` wraps the program's entry points by module and
attribute name (its ``LAYERS`` table) and reports per-layer calls and self
time.  A renamed or re-routed entry point would silently drop a layer from
the benchmark, so this test loads the tracer read-only, checks that every
``LAYERS`` target exists, and drives a small guarded churn stream through
:class:`~repro.service.SparsifierService` under the tracer: every span name
must record at least one call.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

from repro.api import (
    DynamicScenarioConfig,
    InGrassConfig,
    SparsifierService,
    build_churn_scenario,
    grid_circuit_2d,
)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_and_fires():
    tracing = _load_tracing()
    for owner, attribute, _, _ in tracing.LAYERS:
        inspect.getattr_static(tracing._resolve(owner), attribute)

    scenario = build_churn_scenario(
        grid_circuit_2d(10, seed=0),
        DynamicScenarioConfig(num_iterations=6, condition_dense_limit=400, seed=0))
    tracer = tracing.Tracer().install()
    try:
        service = SparsifierService(InGrassConfig(kappa_guard_factor=1.0))
        service.setup(scenario.graph, scenario.initial_sparsifier,
                      target_condition_number=scenario.initial_condition_number)
        for batch in scenario.batches:
            service.apply(batch)
        service.snapshot().effective_resistance(0, scenario.graph.num_nodes - 1)
    finally:
        tracer.uninstall()

    names = {name for _, _, name, _ in tracing.LAYERS}
    assert len(names) == 19
    silent = sorted(name for name in names if tracer.calls[name] == 0)
    assert not silent, f"traced layers that recorded no call: {silent}"
