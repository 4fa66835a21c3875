"""The four benchmark workloads: inputs from a seed, commands, output checks.

Every timed command is a cold ``python -m repro ...`` process with
``--jobs 1`` (the CLI default).  Each workload puts most of its time in
the layers one planned optimisation touches and little anywhere else:

* ``campaign_write`` -- grid decode, the vector kernel and per-chunk
  segment + index writes; no reads.
* ``campaign_read``  -- the same store layer read five ways, each command
  paying a fresh interpreter start; no kernel, no writes.
* ``sim_figures``    -- the discrete-event simulator on the paper's five
  figures (two ranks, thread contention and compute delay); no store, no
  vector kernel.
* ``sim_patterns``   -- the same event loop with 8 ranks through
  ``apps/``: per-link sub-communicators and seeded noise.

Only CLI flags the roadmap keeps are used (no ``--binary``,
``--compress``, ``--sync-write`` or ``--shards``), so the store-format
and writer simplifications run this benchmark unchanged.
"""

import json
import random
import re
import shutil
from pathlib import Path

APPROACHES = (
    "pt2pt_single",
    "pt2pt_many",
    "pt2pt_part",
    "pt2pt_part_old",
    "rma_single_passive",
    "rma_many_passive",
    "rma_single_active",
    "rma_many_active",
)

#: Size-axis lengths of the bench grid family, which has 320 points per
#: size (8 approaches x 4 thread counts x 2 theta x 5 compute rates).
#: They are sized so 4 + 22 x 4 driver runs fit in under an hour with
#: several repetitions each.
#: ``campaign_write``: 5,000 sizes = 1.6M points, 98 default chunks.
WRITE_SIZES = 5000

#: ``campaign_read``: 2,000 sizes = 640k points in the store read back.
READ_SIZES = 2000

#: Grid points whose stored value is compared with a per-point model run.
SAMPLE_POINTS = 48

#: Simulator iterations per point; the simulator is deterministic, so
#: fewer iterations change run time, not the figures' shape.
FIGURE_ITERS = 2
PATTERN_ITERS = 2


def bench_grid_spec(n_sizes, seed):
    """The analytic bench campaign grid; the seed shifts the size axis."""
    first = 1024 + 64 * (seed % 64)
    return {
        "kind": "bench",
        "backend": "analytic",
        "base": {"iterations": 3},
        "axes": {
            "approach": list(APPROACHES),
            "total_bytes": {"range": [first, first + n_sizes * 4096, 4096]},
            "n_threads": [1, 4, 16, 32],
            "theta": [1, 2],
            "gamma_us_per_mb": [0.0, 50.0, 100.0, 200.0, 400.0],
        },
    }


class CheckFailed(Exception):
    """An output check failed; the message says which."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def same_float(a, b):
    return float(a).hex() == float(b).hex()


def segment_format(store):
    """The store's compression and its segment file suffixes."""
    suffixes = sorted({
        path.name.split(".", 1)[-1]
        for path in (store.root / "segments").iterdir()
    })
    return f"{store.compression}:{','.join(suffixes)}"


class Workload:
    """A named command sequence with seeded inputs and output checks.

    ``prepare`` writes the seeded inputs (untimed); ``setup_commands``
    gives the set-up the driver times; ``after_setup`` computes the
    checks' reference data (untimed); ``commands`` gives one
    repetition's CLI argument lists; ``check`` validates command ``i``
    of a repetition and raises :class:`CheckFailed`.
    """

    name = ""
    why = ""
    help_command = ("--help",)
    #: Segment files the program wrote by default (recorded, not pinned).
    segment_format = None

    def __init__(self, work, seed):
        self.work = Path(work)
        self.seed = seed

    def prepare(self):
        """Untimed: write seeded inputs."""

    def setup_commands(self):
        """Timed set-up: a cold CLI start that faults in the interpreter,
        the package bytecode and the page cache."""
        return [list(self.help_command)]

    def after_setup(self):
        """Untimed: reference data for the checks."""

    def commands(self, rep_dir):
        raise NotImplementedError

    def check(self, i, rep_dir, stdout):
        raise NotImplementedError

    def points(self):
        raise NotImplementedError

    def store_root(self, rep_dir):
        """Campaign store the repetition wrote or read, if any."""
        return None


class CampaignWrite(Workload):
    name = "campaign_write"
    why = ("cold 1.6M-point analytic campaign run: grid decode, vector "
           "kernel, per-chunk segment and index writes; no reads")
    help_command = ("campaign", "run", "--help")

    def prepare(self):
        from repro.runner import parse_grid_spec

        self.spec = bench_grid_spec(WRITE_SIZES, self.seed)
        self.grid_path = self.work / "grid.json"
        self.grid_path.write_text(json.dumps(self.spec))
        self.grid = parse_grid_spec(self.spec)
        rng = random.Random(self.seed)
        n = len(self.grid)
        self.sample = sorted(
            {0, n - 1, *(rng.randrange(n) for _ in range(SAMPLE_POINTS))}
        )
        self.expected = self._model_times(self.sample)

    def _model_times(self, indices):
        from repro.backends import get_backend
        from repro.runner.scenario import result_to_dict

        backend = get_backend("analytic")
        expected = {}
        for index in indices:
            scenario = self.grid.scenario_at(index)
            expected[index] = result_to_dict(
                scenario, backend.run(scenario)
            )["times"]
        return expected

    def commands(self, rep_dir):
        return [["campaign", "run", str(self.grid_path),
                 "--root", str(rep_dir / "store")]]

    def check(self, i, rep_dir, stdout):
        from repro.runner import CampaignStore

        n = len(self.grid)
        require(f"executed {n} point(s)" in stdout,
                "campaign run did not report every point executed")
        store = CampaignStore.open(rep_dir / "store")
        require(store.n_completed == n, "coverage incomplete")
        require(store.missing_ranges() == [], "missing ranges remain")
        self.segment_format = segment_format(store)
        indices, columns = store.read_columns()
        require(len(indices) == n and int(indices[-1]) == n - 1,
                "read_columns does not cover the grid")
        times = columns["times"]
        for index in self.sample:
            require(all(same_float(times[index], t)
                        for t in self.expected[index]),
                    f"point {index} differs from AnalyticBackend.run")

    def points(self):
        return len(self.grid)

    def store_root(self, rep_dir):
        return rep_dir / "store"


class CampaignRead(Workload):
    name = "campaign_read"
    why = ("five cold read commands on a 640k-point store: status, slice "
           "report, npz and filtered JSONL export, zero-point resume")

    def prepare(self):
        self.spec = bench_grid_spec(READ_SIZES, self.seed)
        self.grid_path = self.work / "grid.json"
        self.grid_path.write_text(json.dumps(self.spec))
        self.store = self.work / "store"
        rng = random.Random(self.seed)
        self.where = {
            "approach": rng.choice(APPROACHES),
            "n_threads": rng.choice([1, 4, 16, 32]),
        }

    def setup_commands(self):
        # Each set-up builds the store from scratch; the last one stays.
        shutil.rmtree(self.store, ignore_errors=True)
        return [["campaign", "run", str(self.grid_path),
                 "--root", str(self.store)]]

    def after_setup(self):
        from repro.runner import CampaignStore
        from repro.runner.campaign import slice_report

        store = CampaignStore.open(self.store)
        self.segment_format = segment_format(store)
        self.stats = store.stats()
        self.n_points = store.n_points
        require(self.stats["completed"] == self.n_points,
                "set-up store incomplete")
        self.ref_report = json.loads(json.dumps(
            slice_report(store, {"approach": "pt2pt_part"})
        ))
        self.ref_indices, self.ref_columns = store.read_columns()
        self.ref_axes = self._axis_arrays(store, self.ref_indices)
        self.ref_rows = [
            json.loads(json.dumps(
                {"index": index, "assignment": assignment,
                 "result": result}
            ))
            for index, assignment, result in store.query(**self.where)
        ]

    @staticmethod
    def _axis_arrays(store, indices):
        import numpy as np

        codes = store.grid.axis_codes_for_indices(indices)
        return {
            f"axis_{name}": np.take(np.asarray(values), codes[name])
            for name, values in store.grid.axes.items()
        }

    def commands(self, rep_dir):
        store = str(self.store)
        where = [arg for key, value in self.where.items()
                 for arg in ("--where", f"{key}={value}")]
        return [
            ["campaign", "status", store, "--json"],
            ["campaign", "report", store, "--slice", "approach=pt2pt_part",
             "--json"],
            ["campaign", "export", store, "--format", "npz",
             "--out", str(rep_dir / "cols.npz")],
            ["campaign", "export", store, *where,
             "--out", str(rep_dir / "rows.jsonl")],
            ["campaign", "run", str(self.grid_path), "--root", store],
        ]

    def check(self, i, rep_dir, stdout):
        import numpy as np

        if i == 0:
            status = json.loads(stdout)
            for key in ("n_points", "completed", "missing", "segments"):
                require(status[key] == self.stats[key],
                        f"status {key} differs from the store")
        elif i == 1:
            require(json.loads(stdout) == self.ref_report,
                    "slice report differs from in-process slice_report")
        elif i == 2:
            with np.load(rep_dir / "cols.npz") as npz:
                require(np.array_equal(npz["indices"], self.ref_indices),
                        "npz indices differ from read_columns")
                for name, column in self.ref_columns.items():
                    require(np.array_equal(npz[name], column),
                            f"npz column {name} differs from read_columns")
                for name, column in self.ref_axes.items():
                    require(np.array_equal(npz[name], column),
                            f"npz {name} differs from the grid decode")
        elif i == 3:
            with open(rep_dir / "rows.jsonl") as handle:
                rows = [json.loads(line) for line in handle if line.strip()]
            require(rows == self.ref_rows,
                    "JSONL export differs from in-process query")
        else:
            require("executed 0 point(s)" in stdout,
                    "resume executed points on a complete store")

    def points(self):
        return self.n_points

    def store_root(self, rep_dir):
        return self.store


#: Headline bands of the quick-grid figures, as benchmarks/test_figN.py
#: asserts them: (figure, label, low, high); None leaves a side open.
FIGURE_BANDS = (
    ("4", "old/new (large)", 2.0, 4.5),
    ("4", "part/single (small)", 0.8, 1.4),
    ("4", "RMA/pt2pt (small)", 1.5, None),
    ("4", "RMA/pt2pt (large)", 0.95, 1.1),
    ("5", "part/single (small)", 15.0, 45.0),
    ("5", "many/single (small)", 15.0, 45.0),
    ("5", "RMA many/RMA single (small)", 1.0, None),
    ("5", "part/single (large)", None, 1.3),
    ("6", "part/single (small)", 2.0, 7.0),
    ("6", "many/single (small)", 0.7, 1.3),
    ("6", "RMA many/RMA single (small)", None, 1.0),
    ("7", "no-aggr/single (small)", 8.0, None),
    ("7", "aggr=512/single (small)", 2.0, 5.0),
    ("8", "gain part/single (large)", 2.3, 2.67),
)

_FIGURE = re.compile(r"^Figure (\d)\b")
_HEADLINE = re.compile(r"^(.+?): x([0-9.]+)")
_TABLE_ROW = re.compile(r"^\s*\d+(B|KiB|MiB)\s*\|")


def parse_figures(stdout):
    """``({figure: {label: ratio}}, table cells)`` from ``figures`` output."""
    headlines = {}
    cells = 0
    current = None
    for line in stdout.splitlines():
        match = _FIGURE.match(line)
        if match:
            current = headlines.setdefault(match.group(1), {})
            continue
        if current is None:
            continue
        if _TABLE_ROW.match(line):
            cells += len(line.split("|")) - 1
            continue
        match = _HEADLINE.match(line.strip())
        if match:
            current[match.group(1)] = float(match.group(2))
    return headlines, cells


def check_figure_bands(headlines):
    require(sorted(headlines) == ["4", "5", "6", "7", "8"],
            f"figures missing: got {sorted(headlines)}")
    for fig, label, low, high in FIGURE_BANDS:
        value = headlines[fig].get(label)
        require(value is not None, f"fig{fig} headline {label!r} missing")
        require((low is None or value > low) and
                (high is None or value < high),
                f"fig{fig} {label} = {value} outside ({low}, {high})")
    fig7 = headlines["7"]
    many = fig7["many/single (small)"]
    require(abs(fig7["no-aggr/single (small)"] - many) < 0.3 * many,
            "fig7 no-aggr penalty differs from pt2pt_many's")
    fig8 = headlines["8"]
    part = fig8["gain part/single (large)"]
    for label in ("gain many/single (large)", "gain rma/single (large)"):
        require(abs(fig8[label] - part) < 0.1 * part,
                f"fig8 {label} differs from the partitioned gain")
    require(abs(fig8["theoretical gain (Eq. 4)"] - 8 / 3) < 1e-4,
            "fig8 theoretical gain is not 8/3")


class SimFigures(Workload):
    name = "sim_figures"
    why = ("cold figures run of all five figures on the simulator: event "
           "loop, NIC/fabric, MPI matching, approach phases; no store")
    help_command = ("figures", "--help")

    def prepare(self):
        self.cells = None

    def commands(self, rep_dir):
        return [["figures", "--iters", str(FIGURE_ITERS)]]

    def check(self, i, rep_dir, stdout):
        headlines, cells = parse_figures(stdout)
        check_figure_bands(headlines)
        require(cells > 0, "no figure table rows")
        require(self.cells in (None, cells),
                "figure table size changed between repetitions")
        self.cells = cells

    def points(self):
        return self.cells


class SimPatterns(Workload):
    name = "sim_patterns"
    why = ("cold 8-rank halo3d and seeded-noise sweep3d runs of every "
           "approach through apps/: the event loop with many ranks")
    help_command = ("apps", "--help")

    def prepare(self):
        self.first = {}

    def commands(self, rep_dir):
        iters = str(PATTERN_ITERS)
        return [
            ["apps", "--pattern", "halo3d", "--approach", "all",
             "--iters", iters, "--json", str(rep_dir / "halo3d.json")],
            ["apps", "--pattern", "sweep3d", "--approach", "all",
             "--noise", "gaussian", "--noise-us", "20",
             "--noise-sigma-us", "10", "--seed", str(self.seed),
             "--iters", iters, "--json", str(rep_dir / "sweep3d.json")],
        ]

    def check(self, i, rep_dir, stdout):
        name = ("halo3d", "sweep3d")[i]
        payload = json.loads((rep_dir / f"{name}.json").read_text())
        results = {
            record["config"]["approach"]: record["times"]
            for record in payload["results"]
        }
        require(sorted(results) == sorted(APPROACHES),
                f"{name}: approaches {sorted(results)}")
        require(all(t > 0 for times in results.values() for t in times),
                f"{name}: non-positive simulated time")
        first = self.first.setdefault(name, results)
        require(results == first,
                f"{name}: results differ between runs with one seed")

    def points(self):
        return 2 * len(APPROACHES)


WORKLOADS = {
    cls.name: cls
    for cls in (CampaignWrite, CampaignRead, SimFigures, SimPatterns)
}
