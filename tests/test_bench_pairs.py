"""The summary of ``tools/bench_pairs.py``, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_METRICS = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]
# Four pairs: the change is faster in three, sets up faster in two, and
# takes 20 % more memory in every one.
_PARENT = [{"ops_per_s": v, "setup_s": s, "peak_rss_mb": 50.0}
           for v, s in ((100.0, 0.25), (110.0, 0.5), (90.0, 0.375), (120.0, 0.125))]
_CHANGE = [{"ops_per_s": v, "setup_s": s, "peak_rss_mb": 60.0}
           for v, s in ((105.0, 0.125), (108.0, 0.375), (95.0, 0.5), (125.0, 0.25))]


def test_compare_reads_each_metric_in_its_direction():
    ops, setup, rss = (bench_pairs.compare(m, [r[m["name"]] for r in _PARENT],
                                           [r[m["name"]] for r in _CHANGE]) for m in _METRICS)
    assert (ops["parent"], ops["change"], ops["wins"]) == (105.0, 106.5, 3)
    assert ops["worse"] == pytest.approx(-1.5 / 105.0) and not ops["past_bound"]
    # Inclusive quartiles of 90, 100, 110, 120 are 97.5 and 112.5.
    assert ops["spread"] == pytest.approx(15.0 / 105.0)
    assert (setup["parent"], setup["change"], setup["wins"]) == (0.3125, 0.3125, 2)
    assert setup["worse"] == 0.0 and not setup["past_bound"]
    assert rss["wins"] == 0 and rss["worse"] == pytest.approx(0.2) and rss["past_bound"]
    assert rss["spread"] == 0.0


def test_report_lists_every_run_and_flags_the_metric_past_its_bound():
    lines = bench_pairs.report(_METRICS, _PARENT, _CHANGE)
    assert len(lines) == 1 + 2 * len(_PARENT) + 1 + len(_METRICS)
    assert lines[1].split() == ["0", "parent", "100", "0.25", "50"]
    assert lines[2].split() == ["0", "change", "105", "0.125", "60"]
    summary = dict((line.split()[0], line) for line in lines[-len(_METRICS):])
    assert summary["ops_per_s"].split()[1:5] == ["105", "106.5", "0.143", "3/4"]
    assert [name for name, line in summary.items() if "WORSE THAN BOUND" in line] == ["peak_rss_mb"]
