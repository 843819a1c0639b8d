"""Every layer the benchmark traces must stay on the run path.

perfbench/tracer.py wraps each entry point of PATCH_POINTS at the module
attribute its callers look it up by, and BENCHMARK.json declares metrics
for each layer.  A layer that the run path stops calling, or that
disappears, drops its metrics from the benchmark's output.  This test runs
the config of test_golden once, serially, under the tracer.
"""

from pathlib import Path

import pytest

from fraclms import experiment
from fraclms.configfile import dumps
from test_golden import golden_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    return tracer


def test_every_patch_point_is_called(tmp_path, perfbench_tracer):
    config = tmp_path / "golden.config"
    config.write_text(dumps(golden_config()), encoding="utf-8")
    traced = perfbench_tracer.Tracer(tmp_path / "trace")
    traced.install()
    try:
        experiment.run_experiment(config, tmp_path / "out")
    finally:
        traced.uninstall()
    calls = {name: traced.stats.get(name, [0])[0] for name, _, _ in perfbench_tracer.PATCH_POINTS}
    assert [name for name, n in calls.items() if n == 0] == []
