"""Tests of the benchmark's own helpers.  Run with ``python3 -m pytest bench``."""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NAME, PARENT, Tracer, quartile_spread, self_times, summarize, tail_percentile  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(range(19)) is None
    assert tail_percentile(range(1, 21)) == (50.0, 10)
    assert tail_percentile(range(1, 101)) == (90.0, 90)
    # 999 samples leave only 9 beyond the 99th percentile
    assert tail_percentile(range(1, 1000)) == (90.0, 900)
    assert tail_percentile(range(1, 1001)) == (99.0, 990)


def test_summarize_states_the_sample_count():
    assert summarize([]) == {"n": 0}
    assert summarize([2.0] * 5) == {"n": 5, "p50": 2.0}
    assert summarize([float(v) for v in range(1, 101)], 1e3) == {"n": 100, "p50": 50500.0, "p90": 90000.0}


def test_quartile_spread():
    assert quartile_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert quartile_spread([90.0, 95.0, 100.0, 105.0, 110.0]) == pytest.approx(15.0 / 100.0)


def test_self_time_subtracts_nested_children():
    spans = [
        ["a", None, -1, 0.0, 10.0],
        ["b", None, 0, 1.0, 4.0],
        ["c", None, 1, 2.0, 3.0],
        ["d", None, 0, 5.0, 9.0],
        ["e", None, -1, 11.0, 12.0],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])


def _fake_module():
    module = types.ModuleType("pkg.fake")
    exec(
        "def inner(x):\n    return x + 1\n\n"
        "def outer(x):\n    return inner(x) * inner(x)\n\n"
        "def _private(x):\n    return outer(x)\n",
        module.__dict__,
    )
    return module


def test_tracer_records_nesting_and_restores_the_module():
    module = _fake_module()
    originals = dict(vars(module))
    tracer = Tracer()
    names = tracer.install([module], [module], lambda qual, attr: not attr.startswith("_"))
    assert sorted(names) == ["fake.inner", "fake.outer"]
    assert module._private(2) == 9
    tracer.uninstall()
    assert [s[NAME] for s in tracer.spans] == ["fake.outer", "fake.inner", "fake.inner"]
    assert [s[PARENT] for s in tracer.spans] == [-1, 0, 0]
    assert all(vars(module)[k] is v for k, v in originals.items() if callable(v))
    own = self_times(tracer.spans)
    assert 0.0 <= own[0] <= tracer.spans[0][4] - tracer.spans[0][3]


def test_traced_library_call_yields_every_layer_metric():
    import sympdefect
    from sympdefect import experiments, hamiltonians
    from sympdefect.integrators import Scheme, SchemeConfig

    model = hamiltonians.tokamak_model()
    state = hamiltonians.reference_initial_state(model)
    modules = [getattr(sympdefect, name) for name in layers.MODULES]
    tracer = Tracer()
    tracer.install(modules, modules + [sympdefect], layers.select, layers.TAGS)
    try:
        experiments.energy_drift_run(model, [SchemeConfig(Scheme.Q_IMPLICIT, 0.25, M=2)], state, 50, 10)
    finally:
        tracer.uninstall()
    assert experiments.energy_drift_run.__name__ == "energy_drift_run"
    assert not hasattr(experiments.energy_drift_run, "__wrapped__")
    metrics = layers.layer_metrics(tracer.spans, rounds=1, extras={})
    assert set(metrics) == {name for name, _ in layers.PER_LAYER}
    assert metrics["state.PhaseState.constructed_per_step"] == 1.0
    assert metrics["hamiltonians.TokamakModel.grad_p.calls"] == 100
    assert 0.0 < metrics["hamiltonians.field_memo_hit_ratio"] < 1.0
    assert metrics["integrators.step_q_implicit.us_p50"] > 0.0
    assert metrics["autodiff.jacobian.us_p50.w6"] == 0.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeded_inputs_are_byte_identical(name):
    cls = workloads.WORKLOADS[name]
    first, again, other = cls(7).inputs, cls(7).inputs, cls(8).inputs
    assert workloads.canonical_bytes(first) == workloads.canonical_bytes(again)
    assert workloads.inputs_digest(first) == workloads.inputs_digest(again)
    assert workloads.inputs_digest(first) != workloads.inputs_digest(other)


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
