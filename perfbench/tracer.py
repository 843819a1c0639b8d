"""Per-layer counts and self time for one traced fraclms process.

The tracer replaces each layer entry point at the module attribute its
callers look it up by (``fraclms.simulate.flms_step``, not
``fraclms.filters.flms_step``), so the package itself is not edited.
Per-step functions run millions of times, so nothing is stored per call:
each name keeps a call count, a count of calls that raised and its total
self time, which is the span minus the spans of traced calls inside it.
Only ``run_ensemble`` keeps one inclusive duration per call (per cell).

Workers of a fork-started process pool inherit the wrappers.  A worker
resets the inherited totals on its first cell and writes its own totals
to ``dump_dir`` after each cell; :meth:`Tracer.collect` merges them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path

# (layer name, module that looks the name up, attribute)
PATCH_POINTS = (
    ("experiment.run_experiment", "fraclms.experiment", "run_experiment"),
    ("configfile.load", "fraclms.experiment", "load"),
    ("simulate.run_ensemble", "fraclms.experiment", "run_ensemble"),
    ("metrics.build_report", "fraclms.experiment", "build_report"),
    ("plotting.emit_plot", "fraclms.experiment", "emit_plot"),
    ("simulate.stream", "fraclms.simulate", "stream"),
    ("simulate.run_identification", "fraclms.simulate", "run_identification"),
    ("simulate.bpsk_sequence", "fraclms.simulate", "bpsk_sequence"),
    ("simulate.plant_output", "fraclms.simulate", "plant_output"),
    ("filters.flms_step", "fraclms.simulate", "flms_step"),
    ("filters.rvss_flms_step", "fraclms.simulate", "rvss_flms_step"),
    ("metrics.nwd_db", "fraclms.simulate", "nwd_db"),
    ("filters.predict", "fraclms.filters", "predict"),
    ("stepsize.update_correlation", "fraclms.filters", "update_correlation"),
    ("stepsize.update_step_size", "fraclms.filters", "update_step_size"),
)

CELL = "simulate.run_ensemble"


class Tracer:
    def __init__(self, dump_dir):
        self.dump_dir = Path(dump_dir)
        # layer name -> [calls, calls that raised, self seconds]
        self.stats: dict[str, list] = {}
        self.cell_s: list[float] = []
        self._stack: list[float] = []  # child seconds of each open span
        self._saved: list[tuple] = []
        self._owner = os.getpid()
        self._in_worker = False

    def install(self) -> None:
        """Wrap every patch point that exists; a removed name is skipped."""
        for name, module, attr in PATCH_POINTS:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                continue
            fn = getattr(mod, attr, None)
            if callable(fn):
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        is_cell = name == CELL

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_cell and not self._in_worker and os.getpid() != self._owner:
                self._start_worker()
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stat[1] += 1
                raise
            finally:
                span = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += span
                stat[0] += 1
                stat[2] += span - child
                if is_cell:
                    self.cell_s.append(span)
                    if self._in_worker:
                        self._dump()

        return traced

    def _start_worker(self) -> None:
        # totals copied from the parent at fork time belong to the parent
        self._in_worker = True
        self._stack.clear()
        self.cell_s.clear()
        for stat in self.stats.values():
            stat[:] = [0, 0, 0.0]

    def _dump(self) -> None:
        path = self.dump_dir / f"{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"stats": self.stats, "cell_s": self.cell_s}), encoding="utf-8")
        os.replace(tmp, path)

    def collect(self) -> None:
        """Merge and delete the totals that pool workers wrote."""
        for path in sorted(self.dump_dir.glob("*.json")):
            got = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            for name, (calls, raised, self_s) in got["stats"].items():
                stat = self.stats.setdefault(name, [0, 0, 0.0])
                stat[0] += calls
                stat[1] += raised
                stat[2] += self_s
            self.cell_s.extend(got["cell_s"])
