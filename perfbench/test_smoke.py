"""Smoke test of the benchmark: a tiny configuration of each workload.

Run with `PYTHONPATH=src python -m pytest perfbench/test_smoke.py` from the
repository root.  Sizes are cut down so the whole file takes seconds; the
real sizes only run through run.py.
"""

import os
import signal
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def restore_package():
    """run.fresh_import replaces the stratadyn modules; put the originals
    back so later tests keep one consistent set of classes."""
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "stratadyn"}
    yield
    for k in [k for k in sys.modules if k.split(".")[0] == "stratadyn"]:
        del sys.modules[k]
    sys.modules.update(saved)


def tiny(name):
    w = type(workloads.WORKLOADS[name])()
    w.setup_repeats = 2
    if name == "build-cold":
        w.PRESENTATIONS = [(5, k) for k in range(3)] + [(6, 3)]
        w.FILTRATIONS = [(5, k) for k in range(3)]
    elif name == "covers-dynamics":
        w.SEEDED = (("d2", 4, True), ("d3-total", 4, False))
    else:
        w.max_n = 6
        w.min_batches = 1
        w.MIX = tuple((kind, 1 if kind.startswith("cli") else 4) for kind, _ in w.MIX)
    return w


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_plain_run_is_correct_and_complete(name):
    metrics, summary, attempted, wrong, failures = run.measure(tiny(name), seed=3, seconds=0)
    assert wrong == [] and not failures
    assert attempted == summary["query_samples"] >= 1
    assert set(metrics) == {"setup_s", "wall_s", "queries_per_s", "query_p50_ms",
                            "query_p99_ms", "peak_rss_mb"}
    assert all(v > 0 for v, _unit in metrics.values())
    assert summary["calibration_samples"] >= 5 * (summary["setups"] + summary["batches"])
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed(name):
    w = tiny(name)
    lib = run.fresh_import()
    state = w.setup(lib, 5)
    first = workloads.digest(w.make_batch(lib, state, 5, 0).inputs)
    assert first == workloads.digest(w.make_batch(lib, state, 5, 0).inputs)
    assert first != workloads.digest(w.make_batch(lib, state, 6, 0).inputs)


def test_traced_run_reports_every_layer(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    metrics, summary, attempted, wrong, failures = run.measure_traced(tiny("covers-dynamics"), seed=3)
    assert wrong == [] and not failures
    assert list(metrics) == tracing.per_layer_names()
    assert metrics["hurwitz.enumerate_cover_classes.calls"][0] > 0
    assert 0.9 < metrics["trace_cover_ratio"][0] <= 1.0 + 1e-9
    assert os.path.exists(summary["spans_file"]) and summary["unwrapped"] == []


def test_failures_counted_by_class():
    lib = run.fresh_import()
    d2 = lib.cli._d2_data()
    batch = workloads.Batch([
        workloads.Op("no-identify", lambda: lib.pushforward.self_correspondence_matrix(d2, 0),
                     lambda r: None),
        workloads.Op("over-limit", lambda: lib.homology.homology_basis(7, 1, limit_strata=10),
                     lambda r: None),
        workloads.Op("wrong", lambda: 1, lambda r: "always wrong"),
        workloads.Op("right", lambda: 1, lambda r: None),
    ], [])
    _wall, lat, results, errors = run.run_batch(batch)
    wrong, failures = [], Counter()
    run.check_batch(batch, results, errors, wrong, failures)
    assert len(lat) == 4
    assert failures == {"ValueError": 1, "ResourceError": 1}
    assert wrong == ["always wrong"]
