"""Tests for the benchmark itself, outside tier-1:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import signal
import time
from collections import Counter

import pytest

import run
import spans
import workloads
from kcb import canonical, cli, fock, verify
from worker import SpeedProbe, check, run_ops

SMALL = workloads.AllElements(2, (0, 1), 7)
SMALL_CACHE = workloads.CacheRoundTrip(2, (0, 1), 7)
SMALL_CLI = workloads.VerifyCli((
    ("verify", "--suite", "structural", "--a", "1", "--max-degree", "6"),
    ("verify", "--suite", "duality", "--a", "1", "--max-degree", "5"),
))


def outputs(wl, seed, tmp_path, stats=None):
    state = wl.setup(seed, str(tmp_path))
    try:
        return run_ops(wl.ops(state, Counter() if stats is None else stats))[1]
    finally:
        wl.cleanup(state)


def test_two_seeds_give_one_digest(tmp_path):
    a, b = SMALL.setup(1, str(tmp_path)), SMALL.setup(2, str(tmp_path))
    assert a["labels"] != b["labels"] and sorted(a["labels"]) == sorted(b["labels"])
    for wl in (SMALL, SMALL_CACHE, SMALL_CLI):
        one, two = outputs(wl, 1, tmp_path), outputs(wl, 2, tmp_path)
        assert list(one) != list(two) or len(one) < 3
        assert workloads.outputs_digest(one) == workloads.outputs_digest(two)


def test_cache_round_trip_reads_back_what_was_computed(tmp_path):
    computed = outputs(SMALL, 3, tmp_path)
    cached = outputs(SMALL_CACHE, 3, tmp_path)
    assert {k[len("read "):]: v for k, v in cached.items() if k.startswith("read ")} == computed
    assert os.listdir(tmp_path) == []  # cleanup removed the cache directory


def test_corrupted_output_raises_fail_frac(tmp_path, monkeypatch):
    expected = outputs(SMALL, 0, tmp_path)
    attempted, bad = check(outputs(SMALL, 5, tmp_path), expected)
    assert attempted == len(expected) and bad == []

    real = canonical.element_to_json

    def corrupt(elem):
        doc = real(elem)
        if doc["defect"] > 0:
            doc["terms"][-1]["coefficient"] = {"1": 7}
        return doc

    monkeypatch.setattr(canonical, "element_to_json", corrupt)
    attempted, bad = check(outputs(SMALL, 5, tmp_path), expected)
    assert 0 < len(bad) / attempted < 1


def test_failed_cli_output_and_missing_operation_count(tmp_path):
    expected = outputs(SMALL_CLI, 0, tmp_path)
    got = dict(expected)
    key = next(iter(got))
    got[key] = got[key].replace("exit 0", "exit 1")
    del got[list(got)[-1]]
    attempted, bad = check(got, expected)
    assert attempted == len(expected) and len(bad) == 2


def test_speed_probe_time_is_left_out_and_its_timer_removed():
    handler = signal.getsignal(signal.SIGALRM)
    took = {}

    def spin():  # Python bytecode for 0.35 s, so the timer's handler can run
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.35:
            pass
        took["s"] = time.perf_counter() - t0

    probe = SpeedProbe()
    wall, outputs = run_ops([("spin", spin, str)], probe)
    assert outputs == {"spin": "None"}
    assert len(probe.times) >= 4  # before, at least two ticks during, after
    # the ticks during the operation are subtracted, the ones outside are not
    assert took["s"] - probe.spent < wall <= took["s"] - 2 * min(probe.times)
    assert probe.scale() == pytest.approx(
        SpeedProbe.NOMINAL_S * len(probe.times) / sum(probe.times))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_strip_wall_time_keeps_every_other_byte():
    doc = {"suite": "x", "counts": {"match": 1}, "wall_time": 1.234, "instances": []}
    text = json.dumps(doc, indent=2).encode()
    stripped = workloads.strip_wall_time(text)
    assert b"wall_time" not in stripped
    assert json.loads(stripped) == {k: v for k, v in doc.items() if k != "wall_time"}
    assert workloads.strip_wall_time(stripped) == stripped


def test_self_time_on_a_synthetic_span_tree():
    # root [0,100] > a [10,40] > a1 [20,30];  root > b [50,60];  c [200,210] alone
    parent = [-1, 0, 1, 0, -1]
    start = [0, 10, 20, 50, 200]
    end = [100, 40, 30, 60, 210]
    assert spans.self_times(parent, start, end) == [60, 20, 10, 10, 10]
    # overlapping children cover their union once
    assert spans.self_times([-1, 0, 0], [0, 10, 30], [100, 40, 50]) == [60, 30, 20]


def test_recorder_nests_and_totals():
    rec = spans.Recorder()
    outer = rec.begin("outer")
    for _ in range(2):
        rec.finish(rec.begin("inner"))
    rec.finish(outer)
    assert list(rec.parent) == [-1, 0, 0]
    totals = rec.totals()
    calls, inclusive, own = totals["outer"]
    assert calls == 1 and totals["inner"][0] == 2
    assert own == pytest.approx(inclusive - totals["inner"][1])


def _traced_names() -> list[str]:
    """Every kcb name currently bound to a tracing wrapper."""
    owners = [*spans._kcb_modules(), canonical.CanonicalBasis, fock.FockVector, verify.SUITES]
    found = []
    for owner in owners:
        items = owner.items() if isinstance(owner, dict) else vars(owner).items()
        found += [name for name, v in items if getattr(v, "__code__", None) is _WRAPPER_CODE]
    return found


_WRAPPER_CODE = spans._wrap(spans.Recorder(), spans.TARGETS[0], len).__code__


def _names():
    return [
        canonical.apply_f_divided, canonical.dominates, canonical.generate_crystal,
        canonical.element_to_json, fock.exact_div, fock.FockVector.add_scaled,
        canonical.CanonicalBasis.element, canonical.CanonicalBasis.monomial,
        cli.main, cli.verify_duality, verify.SUITES["duality"],
    ]


def test_tracing_wraps_then_restores_every_name(tmp_path):
    before = _names()
    assert _traced_names() == []
    rec = spans.Recorder()
    with pytest.raises(RuntimeError):
        with spans.tracing(rec):
            assert all(a is not b for a, b in zip(_names(), before))
            assert len(_traced_names()) >= len(spans.TARGETS)
            outputs(SMALL, 0, tmp_path, rec.counts)
            raise RuntimeError("restore also on error")
    assert all(a is b for a, b in zip(_names(), before))
    assert _traced_names() == []

    n = len(rec.start)
    assert n > 0 and "canonical.element" in rec.names
    outputs(SMALL, 0, tmp_path)  # an untraced run records nothing
    assert len(rec.start) == n


def test_traced_layers_add_up(tmp_path):
    rec = spans.Recorder()
    with spans.tracing(rec):
        outputs(SMALL_CACHE, 0, tmp_path, rec.counts)
        outputs(SMALL_CLI, 0, tmp_path, rec.counts)
    m = spans.layer_metrics(rec)
    memo_hits = round(m["canonical.memo_hit_ratio"] * m["canonical.element_calls"])
    assert m["canonical.elements_computed"] + m["canonical.disk_hits"] + memo_hits == (
        m["canonical.element_calls"])
    assert m["canonical.disk_hits"] == m["canonical.disk_writes"] > 0
    assert m["cli.main_calls"] == 2 and m["cli.output_bytes"] > 0
    assert m["verify.duality_s"] > 0 and m["verify.instances"] > 0
    assert all(v >= 0 for v in m.values())


def test_benchmark_json_matches_what_run_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {m["name"] for m in bench["per_layer"]} == set(spans.metric_names())
    assert all(m["unit"] == run.unit(m["name"]) for m in bench["per_layer"])
    assert {m["name"] for m in bench["end_to_end"]} == {"wall_s", "peak_rss_mb", "setup_s"}
