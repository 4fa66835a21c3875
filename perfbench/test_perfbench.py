"""Tests of the benchmark's own arithmetic and tracer.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import tracer  # noqa: E402


def span(name, start, end, span_id, parent=None):
    return [name, start, end, span_id, parent, 1]


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_children_once():
    records = [
        span("run", 0.0, 10.0, 0),
        span("a", 1.0, 3.0, 1, parent=0),
        span("b", 2.0, 5.0, 2, parent=0),   # overlaps a: counted once
        span("a.inner", 1.5, 2.0, 3, parent=1),
    ]
    selfs = spans.self_times(records)
    assert selfs[0] == pytest.approx(10.0 - 4.0)
    assert selfs[1] == pytest.approx(2.0 - 0.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(0.5)


def test_self_time_clips_children_to_parent():
    records = [
        span("run", 0.0, 4.0, 0),
        span("late", 3.0, 6.0, 1, parent=0),  # e.g. a writer-thread tail
    ]
    assert spans.self_times(records)[0] == pytest.approx(3.0)


def test_aggregate_sums_calls_totals_and_self():
    records = [
        span("run", 0.0, 10.0, 0),
        span("append", 1.0, 2.0, 1, parent=0),
        span("append", 4.0, 7.0, 2, parent=0),
    ]
    agg = spans.aggregate(records)
    assert agg["append"]["calls"] == 2
    assert agg["append"]["total_s"] == pytest.approx(4.0)
    assert agg["run"]["self_s"] == pytest.approx(6.0)
    assert agg["append"]["durations"] == pytest.approx([1.0, 3.0])


def test_union_length_of_disjoint_and_nested_intervals():
    assert spans.union_length([(0, 1), (2, 4), (3, 5), (3.5, 3.6)]) == 4
    assert spans.union_length([]) == 0.0


# -- percentiles and sample counts -------------------------------------------

@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (99, None), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert spans.tail_percentile(n) == expected


def test_percentile_interpolates_linearly():
    assert spans.percentile([4, 1, 3, 2], 50) == pytest.approx(2.5)
    assert spans.percentile([1, 2, 3, 4, 5], 100) == 5
    assert spans.percentile([7], 90) == 7
    with pytest.raises(ValueError):
        spans.percentile([], 50)


def test_summarize_reports_tail_only_when_supported():
    few = spans.summarize([3.0, 1.0, 2.0])
    assert few == {"n": 3, "median": 2.0}
    many = spans.summarize([float(i) for i in range(100)])
    assert many["n"] == 100
    assert many["median"] == pytest.approx(49.5)
    assert many["p90"] == pytest.approx(89.1)


def test_relative_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.4, 9.9, 10.1, 10.0, 10.3, 9.8]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spans.relative_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values)
    )


# -- error rate --------------------------------------------------------------

def test_error_rate():
    assert spans.error_rate(0, 5) == 0.0
    assert spans.error_rate(1, 4) == 0.25
    assert spans.error_rate(3, 3) == 1.0
    with pytest.raises(ValueError):
        spans.error_rate(0, 0)
    with pytest.raises(ValueError):
        spans.error_rate(5, 4)


# -- tracer ------------------------------------------------------------------

def test_recorder_wraps_functions_methods_and_reports_missing():
    class Store:
        @classmethod
        def open(cls, root):
            return cls()

        def append(self, rows):
            return len(rows)

    module = type(sys)("fake_campaign")
    module.Store = Store
    module.run = lambda store, rows: store.append(rows)
    rec = tracer.Recorder("r1")
    rec.patch(module, "run", "campaign.run", None, tracer.SPAN)
    rec.patch(module, "Store.open", "campaign.open", None, tracer.SPAN)
    rec.patch(module, "Store.append", "campaign.append", None, tracer.COUNT)
    rec.patch(module, "Store.gone", "campaign.gone", None, tracer.SPAN)
    rec.patch(module, "Nowhere.run", "x.run", None, tracer.SPAN)

    store = module.Store.open("root")
    assert isinstance(store, Store)
    assert module.run(store, [1, 2, 3]) == 3
    assert [s[0] for s in rec.spans] == ["campaign.open", "campaign.run"]
    assert rec.counts == {"campaign.append": 1}
    assert rec.missing == ["fake_campaign.Store.gone",
                           "fake_campaign.Nowhere.run"]


def test_spans_nest_and_label_from_first_argument():
    class Spec:
        approach = "pt2pt_part"

    rec = tracer.Recorder("r1")
    inner = rec.span_wrapper(lambda spec: None, "harness.run", "approach")
    outer = rec.span_wrapper(lambda: inner(Spec()), "figures.fig4", None)
    outer()
    (o_name, o_start, o_end, o_id, o_parent, _), (i_name, *_, i_parent, _) = (
        rec.spans
    )
    assert (o_name, o_parent) == ("figures.fig4", None)
    assert (i_name, i_parent) == ("harness.run.pt2pt_part", o_id)
    assert o_end >= o_start


def test_patch_on_import_wraps_before_importers_bind(tmp_path, monkeypatch):
    (tmp_path / "pb_fake_layer.py").write_text(
        "def work(x):\n    return x + 1\n"
    )
    (tmp_path / "pb_fake_user.py").write_text(
        "from pb_fake_layer import work\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    rec = tracer.Recorder("r1")
    finder = tracer.PatchOnImport(
        rec, [("pb_fake_layer", "work", "layer.work", None, tracer.SPAN)]
    )
    monkeypatch.setattr(sys, "meta_path", [finder, *sys.meta_path])
    try:
        import pb_fake_user

        assert pb_fake_user.work(1) == 2
    finally:
        sys.modules.pop("pb_fake_user", None)
        sys.modules.pop("pb_fake_layer", None)
    assert [s[0] for s in rec.spans] == ["layer.work"]


# -- the benchmark definition ------------------------------------------------

def test_benchmark_json_lists_the_metrics_run_py_prints():
    import run

    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == list(
        run.PER_LAYER
    )
    from workloads import WORKLOADS

    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)
    for entry in config["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
