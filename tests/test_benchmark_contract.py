"""Every layer the benchmark traces must stay on the run path.

perfbench/tracer.py wraps each entry point of PATCH_POINTS at the module
attribute its callers look it up by, and BENCHMARK.json declares metrics
for each layer.  A layer that the run path stops calling, or that
disappears, drops its metrics from the benchmark's output.  This test runs
the config of test_golden under the tracer, serially and on a pool of two
workers, whose totals the tracer only has after collect().
"""

from pathlib import Path

import pytest

from fraclms import experiment
from fraclms.configfile import dumps
from test_golden import golden_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# parallel -> {layer name: calls} of a traced run
_CALLS = {}


@pytest.fixture
def perfbench_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    return tracer


def traced_calls(tracer, parallel, tmp_path):
    if parallel not in _CALLS:
        config = tmp_path / f"golden-p{parallel}.config"
        config.write_text(dumps(golden_config()), encoding="utf-8")
        traced = tracer.Tracer(tmp_path / f"trace-p{parallel}")
        traced.dump_dir.mkdir()
        traced.install()
        try:
            experiment.run_experiment(config, tmp_path / f"out-p{parallel}", parallel=parallel)
        finally:
            traced.uninstall()
        traced.collect()
        _CALLS[parallel] = {name: traced.stats.get(name, [0])[0] for name, _, _ in tracer.PATCH_POINTS}
    return _CALLS[parallel]


@pytest.mark.parametrize("parallel", [1, 2])
def test_every_patch_point_is_called(tmp_path, perfbench_tracer, parallel):
    calls = traced_calls(perfbench_tracer, parallel, tmp_path)
    assert [name for name, n in calls.items() if n == 0] == []
    assert calls == traced_calls(perfbench_tracer, 1, tmp_path)
