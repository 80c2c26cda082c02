"""One round of each benchmark workload (perfbench/workloads.py), checked
by the workload's own output checks, so a change to the package calls the
benchmark makes (ground_states with k = 2, the SR trace, infidelity_curve,
cli.main and its YAML keys) fails here and not only in a benchmark run.
A second, traced round, run as `perfbench/run.py --trace 1` runs it,
checks that the tracer still finds every module it imports and reports
every per-layer metric.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path[:0] = [str(PERFBENCH), str(PERFBENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_runs_and_passes_its_checks(tmp_path, name):
    workload = workloads.WORKLOADS[name](1, tmp_path)
    tracer = tracing.Tracer()
    rounds = run.measure(workload, 0.0, tracer)
    assert [traced for traced, _ in rounds] == [False, True]
    for _, rnd in rounds:
        assert rnd.attempted > 0
        assert rnd.failed == 0, "\n".join(rnd.errors)
    assert run.per_layer(rounds, tracer, workload.sr_size).keys() == run.PER_LAYER.keys()
