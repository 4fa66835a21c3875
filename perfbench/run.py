"""Benchmark driver: cold ``python -m repro`` workloads, end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign_write --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` repeats the workload's cold command sequence for
``--seconds`` (at least :data:`MIN_REPS` times) with tracing off and
reports the end-to-end metrics as medians over repetitions.  ``--trace
1`` alternates untraced and traced repetitions (each command then runs
under ``perfbench/tracer.py``) and reports the per-layer metrics, their
self times and ``trace.overhead_s``.  Every command's output is checked;
a failed command or check counts against ``error_rate``, which is
printed by name beside the metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in turn and ends with one summary
object whose metrics are keyed ``<workload>.<metric>``.

Everything the run creates lives under ``.perfbench_work/`` in the
checkout; the spans and a provenance-stamped result stay there after
the run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import namedtuple
from pathlib import Path

import spans as spanmath
from workloads import APPROACHES, WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent
TRACER = HERE / "tracer.py"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Repetitions per run even when one outlasts ``--seconds``.
MIN_REPS = 2

#: Children still running this many seconds after the run started are
#: killed (and fail), so one invocation ends within three minutes.
RUN_DEADLINE_S = 165

#: Cold ``import repro.__main__`` / bare interpreter starts per probe.
IMPORT_PROBES = 3

#: Points per approach timed by the kernel micro-measure.
KERNEL_POINTS = 65536

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.modules_loaded", "count"),
    ("cli.scipy_loaded", "count"),
    ("scenario.kernel_columns_s", "s"),
    ("scenario.kernel_columns_calls", "count"),
    ("vector.bench_times_s", "s"),
    *((f"vector.bench_us_per_point.{a}", "us") for a in APPROACHES),
    ("campaign.append_s", "s"),
    ("campaign.append_calls", "count"),
    ("campaign.segments", "count"),
    ("campaign.bytes_written", "B"),
    ("campaign.append_ms_first16", "ms"),
    ("campaign.append_ms_last16", "ms"),
    ("campaign.run_self_s", "s"),
    ("executor.writer_wait_s", "s"),
    ("campaign.open_s", "s"),
    ("campaign.stats_s", "s"),
    ("campaign.missing_ranges_s", "s"),
    ("campaign.read_columns_s", "s"),
    ("campaign.slice_report_s", "s"),
    ("campaign.export_npz_s", "s"),
    ("campaign.export_jsonl_s", "s"),
    ("sim.events", "count"),
    ("sim.environments", "count"),
    ("sim.run_s", "s"),
    ("sim.events_per_s", "1/s"),
    *((f"harness.run_benchmark_s.{a}", "s") for a in APPROACHES),
    ("harness.calls", "count"),
    ("harness.self_s", "s"),
    *((f"figures.fig{n}_s", "s") for n in range(4, 9)),
    ("figures.self_s", "s"),
    ("apps.run_pattern_s.halo3d", "s"),
    ("apps.run_pattern_s.sweep3d", "s"),
    ("apps.calls", "count"),
    ("apps.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.missing", "count"),
)

#: Counts that must repeat exactly between two traced runs of one code.
DETERMINISTIC_COUNTS = (
    "sim.events",
    "harness.calls",
    "campaign.segments",
    "campaign.append_calls",
    "cli.modules_loaded",
)

#: Span total -> metric, for spans named directly by a metric.
SPAN_TOTALS = {
    "scenario.kernel_columns": "scenario.kernel_columns_s",
    "vector.bench_times": "vector.bench_times_s",
    "campaign.append": "campaign.append_s",
    "executor.writer_wait": "executor.writer_wait_s",
    "campaign.open": "campaign.open_s",
    "campaign.stats": "campaign.stats_s",
    "campaign.missing_ranges": "campaign.missing_ranges_s",
    "campaign.read_columns": "campaign.read_columns_s",
    "campaign.slice_report": "campaign.slice_report_s",
    "campaign.export_npz": "campaign.export_npz_s",
    "campaign.export_jsonl": "campaign.export_jsonl_s",
    "sim.run": "sim.run_s",
    **{f"harness.run_benchmark.{a}": f"harness.run_benchmark_s.{a}"
       for a in APPROACHES},
    **{f"figures.fig{n}": f"figures.fig{n}_s" for n in range(4, 9)},
    "apps.run_pattern.halo3d": "apps.run_pattern_s.halo3d",
    "apps.run_pattern.sweep3d": "apps.run_pattern_s.sweep3d",
}


#: One finished child: exit code, wall seconds, peak RSS, its output.
Outcome = namedtuple("Outcome", "code wall_s rss_mb stdout stderr")


def child_env(work):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    env["TMPDIR"] = str(work / "tmp")
    return env


class Spawner:
    """The small helper process (``spawn.py``) every timed child is
    started from, so each child's ``ru_maxrss`` is its own and not this
    driver's high-water mark."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv, work, log_stem, timeout):
        """Run ``argv`` to completion or ``timeout``."""
        out_path = work / f"{log_stem}.out"
        err_path = work / f"{log_stem}.err"
        self.proc.stdin.write(json.dumps({
            "argv": argv, "cwd": str(ROOT), "env": child_env(work),
            "stdout": str(out_path), "stderr": str(err_path),
            "timeout": timeout,
        }) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process died")
        done = json.loads(reply)
        return Outcome(
            done["code"], done["wall_s"], done["rss_mb"],
            out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"),
        )

    def close(self):
        """Stop the spawner; it kills a child still running."""
        self.proc.terminate()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def cli(args):
    return [sys.executable, "-m", "repro", *args]


class Run:
    """State of one benchmark invocation."""

    def __init__(self, workload, seed, seconds, spawner):
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.spawner = spawner
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        self.workload = WORKLOADS[workload](self.work, seed)
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.n_reps = 0

    # -- operations ----------------------------------------------------------
    def child(self, argv, log_stem):
        timeout = max(1.0, self.deadline - time.monotonic())
        return self.spawner.run(argv, self.work, log_stem, timeout)

    def fail(self, message):
        self.failed += 1
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def rep(self, traced=False):
        """One repetition: every command cold, back to back, then the
        output checks.  Returns ``(wall_s, peak_rss_mb, rep_dir,
        span documents)``; the wall is the sum of the commands' own
        walls, so the driver's bookkeeping between them is not in it."""
        self.n_reps += 1
        rep_dir = self.work / f"rep{self.n_reps:03d}"
        rep_dir.mkdir()
        commands = self.workload.commands(rep_dir)
        outcomes = []
        for i, args in enumerate(commands):
            stem = f"rep{self.n_reps:03d}-cmd{i}"
            argv = (
                [sys.executable, str(TRACER), str(rep_dir / f"spans-{i}.json"),
                 stem, "--", *args]
                if traced else cli(args)
            )
            outcomes.append(self.child(argv, stem))
        docs = [
            json.loads(path.read_text())
            for path in sorted(rep_dir.glob("spans-*.json"))
        ]
        wall = sum(outcome.wall_s for outcome in outcomes)
        for i, (args, outcome) in enumerate(zip(commands, outcomes)):
            self.attempted += 1
            label = f"{self.workload.name} rep {self.n_reps} `{' '.join(args[:2])}`"
            if outcome.code != 0:
                self.fail(f"{label}: exit {outcome.code}: "
                          f"{outcome.stderr.strip()[-400:]}")
                continue
            try:
                self.workload.check(i, rep_dir, outcome.stdout)
            except CheckFailed as exc:
                self.fail(f"{label}: {exc}")
            except Exception as exc:  # a check that crashes is a failure
                self.fail(f"{label}: check raised {exc!r}")
                traceback.print_exc()
        return wall, max(o.rss_mb for o in outcomes), rep_dir, docs

    def setup_once(self):
        """Timed set-up commands; a failed set-up aborts the run."""
        wall = 0.0
        for args in self.workload.setup_commands():
            outcome = self.child(cli(args), "setup")
            if outcome.code != 0:
                raise RuntimeError(
                    f"set-up `{' '.join(args)}` exited {outcome.code}: "
                    f"{outcome.stderr.strip()[-400:]}"
                )
            wall += outcome.wall_s
        return wall

    def cleanup(self, rep_dir):
        """Drop a checked repetition's bulk outputs, keep its spans."""
        for path in rep_dir.iterdir():
            if path.is_dir():
                shutil.rmtree(path)
            elif not path.name.startswith("spans-"):
                path.unlink()

    # -- the two modes -------------------------------------------------------
    def prepare(self):
        """Untimed: byte-compile the program once (a fresh checkout has
        no ``__pycache__``), then write the workload's seeded inputs."""
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(SRC)],
            check=True, stdout=subprocess.DEVNULL,
        )
        self.workload.prepare()

    def end_to_end(self):
        self.prepare()
        setups = [self.setup_once() for _ in range(SETUP_REPEATS)]
        self.workload.after_setup()
        walls, rss = [], []
        start = time.perf_counter()
        while len(walls) < MIN_REPS or time.perf_counter() - start < self.seconds:
            wall, peak, rep_dir, _ = self.rep()
            walls.append(wall)
            rss.append(peak)
            self.cleanup(rep_dir)
        points = self.workload.points() or 0
        wall = statistics.median(walls)
        print(f"repetitions: {len(walls)}, walls: "
              + ", ".join(f"{w:.3f}" for w in walls))
        return {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "points_per_s": (points / wall, "1/s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }

    def traced(self):
        self.prepare()
        self.setup_once()
        self.workload.after_setup()
        metrics = {name: 0.0 for name, _ in PER_LAYER}
        metrics.update(import_probe(self))
        metrics.update(kernel_micro(self.workload))
        plain, traced, layer_runs = [], [], []
        all_spans = []
        start = time.perf_counter()
        while len(traced) < MIN_REPS or time.perf_counter() - start < self.seconds:
            wall, _, rep_dir, _ = self.rep()
            plain.append(wall)
            self.cleanup(rep_dir)
            wall, _, rep_dir, docs = self.rep(traced=True)
            traced.append(wall)
            layer_runs.append(layer_metrics(docs, self.workload, rep_dir))
            all_spans.extend((doc["run_id"], span) for doc in docs
                             for span in doc["spans"])
            self.cleanup(rep_dir)
        units = dict(PER_LAYER)
        for name in layer_runs[0]:
            values = [run[name] for run in layer_runs]
            metrics[name] = (
                values[0] if units[name] == "count"
                else statistics.median(values)
            )
        for name in DETERMINISTIC_COUNTS:
            values = [run.get(name, 0) for run in layer_runs]
            self.attempted += 1
            if len(set(values)) != 1:
                self.fail(f"count {name} differs between traced runs: "
                          f"{values}")
        print("walls untraced: " + ", ".join(f"{w:.3f}" for w in plain)
              + "; traced: " + ", ".join(f"{w:.3f}" for w in traced))
        metrics["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(plain)
        )
        missing = missing_targets()
        metrics["trace.missing"] = len(missing)
        for name in missing:
            print(f"missing traced function: {name}")
        write_spans(self.work / "spans.jsonl", all_spans)
        print_span_table(all_spans, len(traced))
        return {name: (metrics[name], units[name]) for name, _ in PER_LAYER}


def import_probe(run):
    """``cli.import_s``: cold ``import repro.__main__`` minus a bare
    interpreter start (medians of :data:`IMPORT_PROBES` each)."""
    bare, full = [], []
    for i in range(IMPORT_PROBES):
        bare.append(run.child([sys.executable, "-c", "pass"],
                              f"probe-bare{i}").wall_s)
        full.append(run.child([sys.executable, "-c", "import repro.__main__"],
                              f"probe-import{i}").wall_s)
    return {"cli.import_s": statistics.median(full) - statistics.median(bare)}


def kernel_micro(workload):
    """``vector.bench_us_per_point.<approach>``: the vector kernel on each
    approach's columns of the workload's bench grid, in process."""
    grid_spec = getattr(workload, "spec", None)
    if grid_spec is None:
        return {}
    try:
        import numpy as np
        from repro.model.vector import (
            BENCH_COLUMN_FIELDS,
            bench_times_from_columns,
        )
        from repro.mpi import Cvars
        from repro.net import MELUXINA
        from repro.runner import parse_grid_spec
    except ImportError as exc:
        print(f"missing kernel entry point: {exc}")
        return {}
    grid = parse_grid_spec(grid_spec)
    codes = grid.axis_codes_for_indices(
        np.arange(len(grid), dtype=np.int64)
    )["approach"]
    params = grid.base.get("params", MELUXINA)
    cvars = grid.base.get("cvars") or Cvars()
    out = {}
    for code, approach in enumerate(grid.axes["approach"]):
        indices = np.flatnonzero(codes == code)[:KERNEL_POINTS]
        samples = []
        try:
            columns = grid.kernel_columns(
                indices, BENCH_COLUMN_FIELDS, categorical=("approach",)
            )
            for _ in range(3):
                start = time.perf_counter()
                bench_times_from_columns(
                    params, cvars.num_vcis, cvars.vci_method,
                    cvars.part_aggr_size, columns, len(indices),
                )
                samples.append(time.perf_counter() - start)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            # The kernel's signature moved: report, do not fail the run.
            print(f"missing kernel entry point: {exc!r}")
            return out
        out[f"vector.bench_us_per_point.{approach}"] = (
            statistics.median(samples) / len(indices) * 1e6
        )
    return out


def layer_metrics(docs, workload, rep_dir):
    """Per-layer metrics of one traced repetition (all its commands)."""
    spans = [span for doc in docs for span in doc["spans"]]
    agg = spanmath.aggregate(spans)
    counts = {}
    for doc in docs:
        for name, value in doc["counts"].items():
            counts[name] = counts.get(name, 0) + value
    out = {metric: agg[name]["total_s"] if name in agg else 0.0
           for name, metric in SPAN_TOTALS.items()}
    first = docs[0] if docs else {}
    out["cli.modules_loaded"] = first.get("modules_loaded", 0)
    out["cli.scipy_loaded"] = first.get("scipy_loaded", 0)
    out["scenario.kernel_columns_calls"] = agg.get(
        "scenario.kernel_columns", {}).get("calls", 0)
    appends = sorted(
        (span for span in spans if span[0] == "campaign.append"),
        key=lambda span: span[1],
    )
    out["campaign.append_calls"] = len(appends)
    durations = [(span[2] - span[1]) * 1e3 for span in appends]
    out["campaign.append_ms_first16"] = (
        statistics.mean(durations[:16]) if durations else 0.0
    )
    out["campaign.append_ms_last16"] = (
        statistics.mean(durations[-16:]) if durations else 0.0
    )
    out["campaign.run_self_s"] = agg.get("campaign.run", {}).get("self_s", 0.0)
    out["campaign.bytes_written"] = sum(
        path.stat().st_size for path in rep_dir.rglob("*")
        if path.is_file() and not path.name.startswith("spans-")
    )
    store = workload.store_root(rep_dir)
    out["campaign.segments"] = (
        len(list((store / "segments").iterdir()))
        if store is not None and (store / "segments").is_dir() else 0
    )
    out["sim.events"] = counts.get("sim.events", 0)
    out["sim.environments"] = counts.get("sim.environments", 0)
    run_s = out["sim.run_s"]
    out["sim.events_per_s"] = out["sim.events"] / run_s if run_s else 0.0
    for prefix, metric in (("harness.run_benchmark.", "harness"),
                           ("figures.", "figures"),
                           ("apps.run_pattern.", "apps")):
        names = [name for name in agg if name.startswith(prefix)]
        if metric != "figures":
            out[f"{metric}.calls"] = sum(agg[n]["calls"] for n in names)
        out[f"{metric}.self_s"] = sum(agg[n]["self_s"] for n in names)
    out["trace.spans"] = len(spans)
    return out


def missing_targets():
    """Traced functions that no longer resolve in the checked-out code;
    their metrics read 0."""
    import importlib

    from tracer import TARGETS

    missing = []
    for module_name, attr_path, span_name, *_ in TARGETS:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            owner = None
        for part in attr_path.split("."):
            owner = vars(owner).get(part) if owner is not None else None
        if owner is None:
            missing.append(f"{module_name}.{attr_path} (span {span_name})")
    return missing


def write_spans(path, run_spans):
    with open(path, "w") as handle:
        for run_id, (name, start, end, span_id, parent, thread) in run_spans:
            handle.write(json.dumps({
                "run": run_id, "name": name, "start": start, "end": end,
                "id": span_id, "parent": parent, "thread": thread,
            }) + "\n")


def print_span_table(run_spans, n_runs):
    """Per span name over all traced runs: calls, total, self, median
    duration and the tail percentile the sample count supports."""
    by_run = {}
    for run_id, span in run_spans:
        by_run.setdefault(run_id, []).append(span)
    agg = {}
    for spans in by_run.values():
        for name, entry in spanmath.aggregate(spans).items():
            into = agg.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                       "durations": []})
            for key in ("calls", "total_s", "self_s"):
                into[key] += entry[key]
            into["durations"].extend(entry["durations"])
    print(f"spans over {n_runs} traced repetition(s):")
    print(f"  {'span':<36} {'calls':>7} {'total_s':>9} {'self_s':>9}  "
          f"duration")
    for name in sorted(agg):
        entry = agg[name]
        summary = spanmath.summarize(entry["durations"])
        tail = "".join(f" {k}={v * 1e3:.3f}ms" for k, v in summary.items()
                       if k.startswith("p"))
        print(f"  {name:<36} {entry['calls']:>7} {entry['total_s']:>9.4f} "
              f"{entry['self_s']:>9.4f}  n={summary['n']} "
              f"median={summary['median'] * 1e3:.3f}ms{tail}")


def provenance(run):
    from importlib import metadata

    from repro.telemetry import environment_provenance

    stamp = environment_provenance()
    stamp["cpu_affinity"] = sorted(os.sched_getaffinity(0))
    for package in ("numpy", "scipy"):
        try:
            stamp[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            stamp[package] = None
    stamp["segment_format"] = run.workload.segment_format
    return stamp


def preflight():
    """The program must be checked out beside the benchmark."""
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"error: no program at {SRC / 'repro'}; run from a full "
              "checkout", file=sys.stderr)
        return False
    try:
        import numpy  # noqa: F401
    except ImportError:
        print("error: numpy is not importable", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def run_workload(workload, seed, seconds, trace):
    """One workload end to end or traced; prints its metrics by name and
    returns the result object (``None`` when the run could not finish)."""
    spawner = Spawner()
    try:
        run = Run(workload, seed, seconds, spawner)
        metrics = run.traced() if trace else run.end_to_end()
    except Exception:
        traceback.print_exc()
        return None
    finally:
        spawner.close()
    rate = spanmath.error_rate(run.failed, run.attempted)
    stamp = provenance(run)
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name}: {value:.6g} {unit}")
    print(f"{workload} error_rate: {rate:.6g} "
          f"({run.failed}/{run.attempted} operations)")
    print("provenance: " + json.dumps(stamp, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    (run.work / "result.json").write_text(json.dumps(
        {**result, "workload": workload, "seed": seed, "trace": trace,
         "error_rate": rate, "failures": run.failures,
         "provenance": stamp},
        indent=2,
    ))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not preflight():
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    # 'all': one summary object, metrics keyed "<workload>.<metric>".
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
