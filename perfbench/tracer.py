"""Traced run of one ``python -m repro`` command, from outside the program.

Usage::

    python perfbench/tracer.py SPANS_OUT RUN_ID -- <repro CLI arguments>

The command runs exactly as ``python -m repro <arguments>`` would (same
``runpy`` entry, same ``sys.argv``), but every public function named in
:data:`TARGETS` is wrapped, at module or class level, the moment its
module finishes executing.  Wrapping on import, instead of importing the
targets up front, keeps the command's cold import path unchanged: a
command that never loads ``repro.sim`` still does not.

Each call of a wrapped function records a span ``(name, start, end,
parent, run id, thread)`` in memory; count-only targets just bump a
counter.  At exit the spans, counters, the module count and whether
scipy was loaded go to ``SPANS_OUT`` as one JSON document.  Nothing is
added inside ``src/``.

This module imports only what ``python -m`` itself loads (``runpy`` and
the import machinery), so ``modules_loaded`` is the command's own count.
"""

import _thread
import runpy
import sys
import time
from importlib.machinery import PathFinder

SPAN = "span"
COUNT = "count"

#: (module, attribute path, metric span name, label attribute, mode).
#: The label attribute, when set, is read off the first argument and
#: appended to the span name (``harness.run_benchmark.pt2pt_part``).
TARGETS = (
    ("repro.runner.scenario", "ScenarioGrid.kernel_columns",
     "scenario.kernel_columns", None, SPAN),
    ("repro.model.vector", "bench_times_from_columns",
     "vector.bench_times", None, SPAN),
    ("repro.runner.campaign", "run_campaign", "campaign.run", None, SPAN),
    ("repro.runner.campaign", "CampaignStore.append_columns",
     "campaign.append", None, SPAN),
    ("repro.runner.campaign", "CampaignStore.append_chunk",
     "campaign.append", None, SPAN),
    ("repro.runner.campaign", "CampaignStore.open", "campaign.open",
     None, SPAN),
    ("repro.runner.campaign", "CampaignStore.stats", "campaign.stats",
     None, SPAN),
    ("repro.runner.campaign", "CampaignStore.missing_ranges",
     "campaign.missing_ranges", None, SPAN),
    ("repro.runner.campaign", "CampaignStore.read_columns",
     "campaign.read_columns", None, SPAN),
    ("repro.runner.campaign", "slice_report", "campaign.slice_report",
     None, SPAN),
    ("repro.runner.campaign", "CampaignStore.export_npz",
     "campaign.export_npz", None, SPAN),
    ("repro.runner.campaign", "CampaignStore.export_jsonl",
     "campaign.export_jsonl", None, SPAN),
    ("repro.runner.executor", "AsyncSegmentWriter.submit",
     "executor.writer_wait", None, SPAN),
    ("repro.runner.executor", "AsyncSegmentWriter.close",
     "executor.writer_wait", None, SPAN),
    ("repro.sim.core", "Environment.__init__", "sim.environments",
     None, COUNT),
    ("repro.sim.core", "Environment.step", "sim.events", None, COUNT),
    ("repro.sim.core", "Environment.run", "sim.run", None, SPAN),
    ("repro.bench.harness", "run_benchmark", "harness.run_benchmark",
     "approach", SPAN),
    ("repro.figures.fig4_improvement", "run", "figures.fig4", None, SPAN),
    ("repro.figures.fig5_congestion", "run", "figures.fig5", None, SPAN),
    ("repro.figures.fig6_vcis", "run", "figures.fig6", None, SPAN),
    ("repro.figures.fig7_aggregation", "run", "figures.fig7", None, SPAN),
    ("repro.figures.fig8_earlybird", "run", "figures.fig8", None, SPAN),
    ("repro.apps.base", "run_pattern", "apps.run_pattern", "pattern",
     SPAN),
)


class Recorder:
    """In-memory spans and counters of one traced process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, span_id, parent_id, thread]
        self.counts = {}
        self.missing = []
        self._stacks = {}  # thread ident -> open span ids

    def span_wrapper(self, fn, name, label):
        spans = self.spans
        stacks = self._stacks
        clock = time.perf_counter
        get_ident = _thread.get_ident

        def traced(*args, **kwargs):
            full = name
            if label is not None and args:
                full = f"{name}.{getattr(args[0], label, '?')}"
            ident = get_ident()
            stack = stacks.setdefault(ident, [])
            span_id = len(spans)
            record = [full, clock(), None, span_id,
                      stack[-1] if stack else None, ident]
            spans.append(record)
            stack.append(span_id)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def count_wrapper(self, fn, name):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, module, attr_path, name, label, mode):
        """Wrap ``module.<attr_path>``; a path that no longer resolves
        is recorded as missing instead of failing the command."""
        *owners, attr = attr_path.split(".")
        owner = module
        for part in owners:
            owner = getattr(owner, part, None)
        raw = None if owner is None else vars(owner).get(attr)
        if raw is None:
            self.missing.append(f"{module.__name__}.{attr_path}")
            return
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        wrapped = (
            self.span_wrapper(fn, name, label)
            if mode == SPAN
            else self.count_wrapper(fn, name)
        )
        setattr(owner, attr, kind(wrapped) if kind is not None else wrapped)


class PatchOnImport:
    """Meta-path finder that patches a target module right after it
    executes, before any importer can bind its names."""

    def __init__(self, recorder, targets):
        self.recorder = recorder
        self.by_module = {}
        for target in targets:
            self.by_module.setdefault(target[0], []).append(target[1:])

    def find_spec(self, fullname, path=None, target=None):
        if fullname not in self.by_module:
            return None
        spec = PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        exec_module = spec.loader.exec_module
        recorder = self.recorder
        patches = self.by_module[fullname]

        def exec_and_patch(module):
            exec_module(module)
            for patch in patches:
                recorder.patch(module, *patch)

        spec.loader.exec_module = exec_and_patch
        return spec


def run(spans_out, run_id, argv):
    recorder = Recorder(run_id)
    sys.meta_path.insert(0, PatchOnImport(recorder, TARGETS))
    sys.argv = ["repro", *argv]
    start = time.perf_counter()
    code = 0
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        end = time.perf_counter()
        modules_loaded = len(sys.modules)
        scipy_loaded = int("scipy" in sys.modules)
        import json

        with open(spans_out, "w") as handle:
            json.dump(
                {
                    "run_id": run_id,
                    "start": start,
                    "end": end,
                    "exit_code": code,
                    "modules_loaded": modules_loaded,
                    "scipy_loaded": scipy_loaded,
                    "spans": recorder.spans,
                    "counts": recorder.counts,
                    "missing": recorder.missing,
                },
                handle,
            )
    return code


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.stderr.write(__doc__)
        sys.exit(2)
    sys.exit(run(sys.argv[1], sys.argv[2], sys.argv[4:]))
