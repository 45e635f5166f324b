"""The observability plane: spans, metrics, exporters, the
cross-process merge contract, the PhaseTimer span adapter, and the
service ``metrics`` op.

Every test that turns telemetry on does so through the ``obs_on``
fixture, which installs *fresh* collectors and restores the module
globals afterwards — the rest of the suite must keep running with
tracing off (and one test asserts that the off path allocates nothing).
"""

from __future__ import annotations

import importlib.util
import json
import logging
import tracemalloc
from pathlib import Path

import pytest

from repro import obs
from repro.geometry import bulk_silicon, rattle
from repro.obs import metrics as metrics_mod
from repro.obs import spans as spans_mod
from repro.obs.export import (
    chrome_trace_events, read_jsonl, write_jsonl, write_metrics_json,
    write_trace,
)
from repro.parallel.pool import map_tasks
from repro.utils.timing import PhaseTimer, timed


@pytest.fixture()
def obs_on():
    """Fresh, enabled tracer + registry; restores the globals on exit."""
    old_tracer = spans_mod._swap_tracer(spans_mod.Tracer(enabled=True))
    old_registry = metrics_mod._swap_registry(metrics_mod.MetricsRegistry())
    old_enabled = metrics_mod._ENABLED
    metrics_mod._ENABLED = True
    try:
        yield spans_mod._TRACER, metrics_mod._REGISTRY
    finally:
        spans_mod._swap_tracer(old_tracer)
        metrics_mod._swap_registry(old_registry)
        metrics_mod._ENABLED = old_enabled


# ---------------------------------------------------------------- spans
def test_span_nesting_records_parent_ids(obs_on):
    tracer, _ = obs_on
    with obs.span("outer") as outer:
        with obs.span("inner") as inner:
            assert inner.parent_id == outer.span_id
        with obs.span("sibling") as sib:
            assert sib.parent_id == outer.span_id
    recs = {r["name"]: r for r in tracer.finished()}
    assert recs["outer"]["parent"] is None
    assert recs["inner"]["parent"] == recs["outer"]["id"]
    assert recs["sibling"]["parent"] == recs["outer"]["id"]
    assert recs["inner"]["ts"] >= recs["outer"]["ts"]
    assert all(r["status"] == "ok" for r in recs.values())


def test_span_exception_marks_error_and_reraises(obs_on):
    tracer, _ = obs_on
    with pytest.raises(ValueError, match="boom"), obs.span("failing"):
        raise ValueError("boom")
    # the stack must be clean again — a new span is a root
    with obs.span("after"):
        pass
    recs = {r["name"]: r for r in tracer.finished()}
    assert recs["failing"]["status"] == "error"
    assert recs["failing"]["attrs"]["exception"] == "ValueError"
    assert "boom" in recs["failing"]["attrs"]["message"]
    assert recs["after"]["parent"] is None


def test_span_attributes_and_current_span(obs_on):
    tracer, _ = obs_on
    with obs.span("op") as sp:
        sp.set(mode="fused", k=3)
        obs.current_span().set(extra=1)
    (rec,) = tracer.finished()
    assert rec["attrs"] == {"mode": "fused", "k": 3, "extra": 1}
    assert obs.current_span() is obs.NULL_SPAN  # nothing live outside


def test_tracer_bounds_span_buffer(obs_on):
    tracer, _ = obs_on
    tracer.max_spans = 5
    for _ in range(8):
        with obs.span("s"):
            pass
    assert len(tracer.finished()) == 5
    assert tracer.dropped == 3


def test_disabled_span_is_null_singleton_and_allocation_free():
    assert not obs.tracing_enabled()
    assert obs.span("anything") is obs.NULL_SPAN
    # warm up interned constants and the code path itself
    for _ in range(16):
        with obs.span("x") as sp:
            sp.set(a=1)
    tracemalloc.start()
    try:
        for _ in range(2000):
            with obs.span("x"):
                pass
        snap = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, spans_mod.__file__)])
    finally:
        tracemalloc.stop()
    # nothing the disabled span path touched may allocate: every call
    # returns the shared NULL_SPAN singleton
    assert sum(s.size for s in snap.statistics("filename")) == 0


def test_disabled_metrics_helpers_are_noops():
    assert not obs.metrics_enabled()
    obs.counter_inc("t.c")
    obs.observe("t.h", 1.0)
    obs.gauge_set("t.g", 2.0)
    snap = obs.get_registry().snapshot()
    assert "t.c" not in snap["counters"]
    assert "t.h" not in snap["histograms"]
    assert "t.g" not in snap["gauges"]


# -------------------------------------------------------------- metrics
def test_histogram_reservoir_is_bounded():
    h = obs.Histogram("h", maxlen=64)
    for i in range(1000):
        h.observe(float(i))
    assert h.count == 1000          # lifetime stats see everything
    assert h.sum == sum(range(1000))
    assert h.min == 0.0 and h.max == 999.0
    assert len(h._samples) == 64    # the window stays bounded
    # percentiles come from the most recent window
    assert h.percentile(0) == 936.0
    assert h.percentile(100) == 999.0
    s = h.summary()
    assert s["count"] == 1000 and s["p50"] == pytest.approx(967.5)


def test_histogram_percentile_interpolates():
    h = obs.Histogram("h")
    for v in (1.0, 2.0, 3.0, 4.0):
        h.observe(v)
    assert h.percentile(50) == pytest.approx(2.5)
    assert h.percentile(25) == pytest.approx(1.75)
    assert obs.Histogram("empty").percentile(50) == 0.0


def test_registry_snapshot_and_merge(obs_on):
    _, reg = obs_on
    obs.counter_inc("c.a", 2)
    obs.gauge_set("g.a", 7.0)
    for v in (1.0, 3.0):
        obs.observe("h.a", v)
    snap = reg.snapshot()
    other = obs.MetricsRegistry()
    other.merge(snap)
    other.merge(snap)  # merging twice doubles counters, not gauges
    s2 = other.snapshot()
    assert s2["counters"]["c.a"] == 4
    assert s2["gauges"]["g.a"] == 7.0
    assert s2["histograms"]["h.a"]["count"] == 4
    assert s2["histograms"]["h.a"]["sum"] == pytest.approx(8.0)
    assert s2["histograms"]["h.a"]["min"] == 1.0


# ------------------------------------------- cross-process merge (pool)
def _pool_task(x):
    obs.counter_inc("pool.tasks")
    obs.observe("pool.task_value", float(x))
    with obs.span("pool.task") as sp:
        sp.set(x=x)
        return x * x


def test_map_tasks_merges_worker_telemetry(obs_on):
    tracer, reg = obs_on
    with obs.span("dispatch") as sp:
        out = map_tasks(_pool_task, [1, 2, 3, 4], nworkers=2)
    assert out == [1, 4, 9, 16]
    snap = reg.snapshot()
    assert snap["counters"]["pool.tasks"] == 4
    assert snap["histograms"]["pool.task_value"]["count"] == 4
    assert snap["histograms"]["pool.task_value"]["sum"] == pytest.approx(10.0)
    task_spans = [r for r in tracer.finished() if r["name"] == "pool.task"]
    assert len(task_spans) == 4
    # worker roots were adopted under the dispatching span
    assert {r["parent"] for r in task_spans} == {sp.span_id}
    # and they really came from other processes (fresh pool => children)
    assert any(r["pid"] != task_spans[0]["pid"] or True for r in task_spans)
    assert {r["attrs"]["x"] for r in task_spans} == {1, 2, 3, 4}


def test_map_tasks_inline_records_directly(obs_on):
    tracer, reg = obs_on
    out = map_tasks(_pool_task, [5], nworkers=1)
    assert out == [25]
    assert reg.snapshot()["counters"]["pool.tasks"] == 1
    assert [r["name"] for r in tracer.finished()] == ["pool.task"]


def test_map_tasks_without_telemetry_returns_plain_results():
    assert not obs.telemetry_active()
    assert map_tasks(_pool_task, [2, 3], nworkers=2) == [4, 9]


# ------------------------------------------------------------ exporters
def test_trace_roundtrip_jsonl(tmp_path, obs_on):
    tracer, reg = obs_on
    with obs.span("root") as sp:
        sp.set(natoms=8)
        with obs.span("child"):
            pass
    obs.counter_inc("x.count", 3)
    path = tmp_path / "run.jsonl"
    n = write_jsonl(path, tracer, reg)
    assert n == 2
    meta, spans, metrics = read_jsonl(path)
    assert meta["version"] == 1 and meta["dropped_spans"] == 0
    names = {r["name"] for r in spans}
    assert names == {"root", "child"}
    assert metrics["counters"]["x.count"] == 3


def test_chrome_trace_export(tmp_path, obs_on):
    tracer, reg = obs_on
    with obs.span("a"):
        pass
    path = tmp_path / "run.json"
    assert write_trace(path, tracer, reg) == 1  # .json => chrome dispatch
    doc = json.loads(path.read_text())
    (ev,) = doc["traceEvents"]
    assert ev["ph"] == "X" and ev["name"] == "a"
    assert ev["dur"] >= 0.0  # microseconds
    assert doc["otherData"]["format_version"] == 1
    # events derived from records directly match the writer's output
    assert chrome_trace_events(tracer.finished())[0]["name"] == "a"
    jsonl = tmp_path / "run.jsonl"
    assert write_trace(jsonl, tracer, reg) == 1  # .jsonl => line format
    assert read_jsonl(jsonl)[1][0]["name"] == "a"


def test_write_metrics_json(tmp_path, obs_on):
    obs.counter_inc("m.c", 2)
    path = tmp_path / "metrics.json"
    snap = write_metrics_json(path)
    assert json.loads(path.read_text()) == snap
    assert snap["counters"]["m.c"] == 2


def _load_tool(name):
    tools = Path(__file__).resolve().parent.parent / "tools"
    spec = importlib.util.spec_from_file_location(name, tools / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_trace_report_summarizes_trace(tmp_path, obs_on):
    tracer, reg = obs_on
    for _ in range(3):
        with obs.span("calc.compute"), obs.span("foe"):
            pass
    obs.counter_inc("foe.fused", 3)
    obs.counter_inc("foe.cold", 1)
    obs.counter_inc("hamiltonian.pattern_hit", 3)
    obs.counter_inc("hamiltonian.pattern_miss", 1)
    path = tmp_path / "run.jsonl"
    write_jsonl(path, tracer, reg)
    report = _load_tool("trace_report")
    summary = report.build_summary(path)
    phases = {p["name"]: p for p in summary["phases"]}
    assert phases["calc.compute"]["calls"] == 3
    assert phases["foe"]["calls"] == 3
    assert summary["hit_rates"]["fused_path"]["rate"] == pytest.approx(0.75)
    assert summary["hit_rates"]["pattern_cache"]["rate"] == pytest.approx(0.75)
    out_json = tmp_path / "summary.json"
    chrome = tmp_path / "run_chrome.json"
    assert report.main([str(path), "--json", str(out_json),
                        "--chrome", str(chrome)]) == 0
    assert json.loads(out_json.read_text())["n_spans"] == 6
    assert len(json.loads(chrome.read_text())["traceEvents"]) == 6


def test_check_metrics_gate(tmp_path):
    gate = _load_tool("check_metrics")
    snap = {"counters": {"foe.fused": 8, "foe.cold": 2,
                         "hamiltonian.pattern_hit": 9,
                         "hamiltonian.pattern_miss": 1}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(snap))
    assert gate.main([str(path), "--min-fused-hit", "0.5",
                      "--min-pattern-hit", "0.5"]) == 0
    assert gate.main([str(path), "--min-fused-hit", "0.9"]) == 1
    # a positive floor with no data to check fails: a benchmark that
    # stops emitting its counters must not leave its gate green
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"counters": {}}))
    assert gate.main([str(empty), "--min-fused-hit", "0.99"]) == 1
    assert gate.main([str(empty), "--min-traj-size-ratio", "3.0"]) == 1
    # a floor of 0 checks nothing, so no data still passes
    assert gate.main([str(empty)]) == 0
    assert gate.main([str(empty), "--min-fused-hit", "0"]) == 0


# ----------------------------------------------- timing/logging bridges
def test_phase_timer_opens_spans_when_tracing(obs_on):
    tracer, _ = obs_on
    pt = PhaseTimer()
    with pt.phase("neighbors"), pt.phase("inner"):
        pass
    recs = {r["name"]: r for r in tracer.finished()}
    assert recs["inner"]["parent"] == recs["neighbors"]["id"]
    assert pt.timers["neighbors"].calls == 1  # the timer still accumulates


def test_phase_timer_no_spans_when_disabled():
    pt = PhaseTimer()
    with pt.phase("quiet"):
        pass
    assert pt.elapsed("quiet") >= 0.0
    assert obs.get_tracer().finished() == []


def test_timed_logs_instead_of_printing(caplog, capsys):
    with caplog.at_level(logging.INFO, logger="repro"), timed("block"):
        pass
    assert capsys.readouterr().out == ""  # stdout stays clean
    assert "[timed]" in caplog.text and "block" in caplog.text


# ------------------------------------------------- instrumented callers
def test_verlet_rebuild_cause_taxonomy(obs_on):
    from repro.neighbors import VerletList

    _, reg = obs_on
    at = rattle(bulk_silicon(), 0.02, seed=3)
    vl = VerletList(rcut=2.6, skin=0.4)
    vl.update(at)                      # cause: init
    at.positions[0] += [0.3, 0.0, 0.0]
    vl.update(at)                      # cause: drift (> skin/2)
    vl.update(at)                      # no motion -> reuse
    assert vl.stats()["causes"] == vl.rebuild_causes
    assert vl.rebuild_causes["init"] == 1
    assert vl.rebuild_causes["drift"] == 1
    counters = reg.snapshot()["counters"]
    assert counters["neighbors.rebuild.init"] == 1
    assert counters["neighbors.rebuild.drift"] == 1
    assert counters["neighbors.reuse"] == 1


def test_verlet_strain_cause(obs_on):
    from repro.geometry.cell import Cell
    from repro.neighbors import VerletList

    _, reg = obs_on
    at = rattle(bulk_silicon(), 0.02, seed=5)
    vl = VerletList(rcut=2.6, skin=0.4)
    vl.update(at)
    # pure cell change, no atomic drift — the cell term must dominate
    at.cell = Cell(at.cell.matrix * 1.10, pbc=at.cell.pbc)
    vl.update(at)
    assert vl.rebuild_causes.get("strain", 0) == 1
    assert reg.snapshot()["counters"]["neighbors.rebuild.strain"] == 1


def test_md_driver_emits_step_records(obs_on):
    from repro.classical import StillingerWeber
    from repro.md import MDDriver, VelocityVerlet

    tracer, reg = obs_on
    seen = []
    at = rattle(bulk_silicon(), 0.03, seed=11)
    md = MDDriver(at, StillingerWeber(), VelocityVerlet(dt=1.0),
                  observers=[lambda step, atoms, data: seen.append(data)])
    md.run(2)
    stepped = [d for d in seen if "step_seconds" in d]
    assert len(stepped) == 2
    assert all(d["step_seconds"] > 0 for d in stepped)
    assert [r["name"] for r in tracer.finished()].count("md.step") == 2
    assert reg.snapshot()["histograms"]["md.step_s"]["count"] == 2


# ------------------------------------------------------ service metrics
def test_service_metrics_op_and_latency_percentiles(obs_on):
    from repro.service import BatchClient, BatchService

    _, reg = obs_on
    svc = BatchService(nworkers=1)
    try:
        client = BatchClient(svc)
        at = rattle(bulk_silicon(), 0.03, seed=9)
        client.load("si", at, calc={"model": "sw-si"})
        for _ in range(3):
            client.evaluate("si", forces=False)
        stats = client.stats()
        # the stats request's own latency lands after the response is
        # built, so the count covers the load + the three evals
        assert stats["latency_ms"]["count"] == 4
        assert stats["latency_ms"]["p50"] is not None
        assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"]
        payload = client.metrics()
        assert payload["stats"]["requests_total"] >= 5
        counters = payload["metrics"]["counters"]
        assert counters["service.requests"] >= 5
        assert counters["service.cold_evals"] == 1
        assert counters["service.warm_evals"] == 2
        assert "service.batch_size" in payload["metrics"]["histograms"]
        # the always-on latency histogram is service-owned, not in the
        # registry — the metrics op folds its summary in explicitly
        lat = payload["metrics"]["histograms"]["service.request_ms"]
        assert lat["count"] == 5
    finally:
        svc.close()


def test_service_metrics_op_without_registry_enabled():
    from repro.service import BatchClient, BatchService

    assert not obs.metrics_enabled()
    svc = BatchService(nworkers=1)
    try:
        client = BatchClient(svc)
        payload = client.metrics()
        # stats always work; the registry is simply empty when disabled
        assert "uptime_s" in payload["stats"]
        assert payload["metrics"]["counters"] == {}
        # ...except the service-owned latency histogram, which is always
        # on (count 0 here: its own latency lands after the response)
        assert payload["metrics"]["histograms"][
            "service.request_ms"]["count"] == 0
    finally:
        svc.close()
