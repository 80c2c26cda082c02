"""Tests of the benchmark's own parts: the free-fermion oracle, the tracer's
self-time arithmetic, the seeded input generators and the metric lists.

Run with: PYTHONPATH=src python -m pytest -q perfbench
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from nqs_tfim import RotatedTfim, exact  # noqa: E402


@pytest.mark.parametrize("L", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("lam", [0.5, 1.5])
def test_oracle_matches_exact_diagonalization(L, lam):
    e0, e1 = oracle.lowest_energies(L, lam)
    for theta in (0.0, 0.3, np.pi / 4, 1.2, np.pi / 2):
        spec = exact.ground_states(RotatedTfim(L, lam, theta), k=2)
        assert spec.energies[0] == pytest.approx(e0, abs=1e-10)
        assert spec.energies[1] == pytest.approx(e1, abs=1e-10)


class FakeClock:
    """Each reading advances time by one unit."""

    def __init__(self):
        self.ticks = itertools.count()

    def __call__(self):
        return float(next(self.ticks))


def test_self_time_subtracts_direct_children_only():
    tracer = tracing.Tracer(clock=FakeClock())
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: leaf())
    outer = tracer.wrap("outer", lambda: (mid(), leaf()))
    outer()
    # clock readings: outer 0, mid 1, leaf 2-3, mid end 4, leaf 5-6, outer end 7
    assert tracing.self_times(tracer.spans) == {
        "outer": (1, 7.0 - 3.0 - 1.0),
        "mid": (1, 3.0 - 1.0),
        "leaf": (2, 2.0),
    }


def test_installed_catches_calls_inside_the_module_and_restores():
    import types
    mod = types.ModuleType("fakepkg.layer")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n"
         "def _private(x):\n    return x\n", mod.__dict__)
    original = mod.outer
    table = {"k": mod.outer}
    tracer = tracing.Tracer(clock=FakeClock())
    with tracer.installed([mod], dicts=[table]):
        assert table["k"](1) == 4
    assert mod.outer is original and table["k"] is original
    assert [s[0] for s in tracer.spans] == ["layer.outer", "layer.inner"]
    assert tracer.spans[1][3] == 0


def test_span_is_recorded_when_the_call_raises():
    tracer = tracing.Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracing.self_times(tracer.spans) == {"boom": (1, 1.0)}


def test_generators_repeat_for_a_seed_and_differ_across_seeds():
    for make in (workloads.sweep_inputs, workloads.train_inputs, workloads.exact_inputs):
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_sweep_configs_are_written_identically(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    wa, wb = workloads.SweepL6(3, a), workloads.SweepL6(3, b)
    for kind in wa.configs:
        assert wa.configs[kind].read_text() == wb.configs[kind].read_text()


def test_truncation_grid_ends_at_full_expansion():
    ns = workloads.truncation_grid(12)
    assert ns[0] == 1 and ns[-1] == 4096 and np.all(np.diff(ns) > 0)


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
