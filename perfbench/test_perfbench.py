"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` (about 2 min).

The tier-1 suite does not collect these (its testpaths are ``tests/``).
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import replace
from pathlib import Path

import pytest

import check
import probes
import run
import speed

HERE = Path(__file__).resolve().parent
RATIONALE = json.loads((HERE / "rationale.json").read_text(encoding="utf-8"))
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _ticking_clock():
    ticks = iter(range(10**6))
    return lambda: float(next(ticks))


def test_self_times_of_a_nested_trace_sum_to_its_wall_time():
    tracer = probes.Tracer(clock=_ticking_clock())

    def leaf():
        return 1

    def mid():
        return tracer.span("b.mid@a", leaf, (), {}) + tracer.span("c.leaf@b", leaf, (), {})

    def root():
        total = tracer.span("b.mid@a", mid, (), {})
        return total + tracer.span("c.leaf@a", leaf, (), {})

    tracer.span("a.root@x", root, (), {})
    table = tracer.table()
    self_total = sum(v for k, v in table.items() if k.endswith(".self"))
    assert table["a.root@x.incl"] > 0
    assert self_total == pytest.approx(table["a.root@x.incl"])
    # the inner b.mid span is nested in the outer one: counted once inclusively
    assert table["b.mid@a.calls"] == 2
    assert table["b.mid@a.incl"] < table["a.root@x.incl"]


def test_worker_thread_children_overlap_instead_of_adding_up():
    tracer = probes.Tracer()
    barrier = threading.Barrier(2)

    def child():
        barrier.wait(timeout=5)
        threading.Event().wait(0.1)

    def parent():
        threads = [threading.Thread(target=tracer.span, args=("radio.c@m", child, (), {}))
                   for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    tracer.span("montecarlo.p@e", parent, (), {})
    table = tracer.table()
    assert table["radio.c@m.calls"] == 2
    covered = table["montecarlo.p@e.incl"] - table["montecarlo.p@e.self"]
    assert 0.1 <= covered < table["radio.c@m.incl"]
    assert table["montecarlo.p@e.self"] >= 0.0


def test_speed_probe_times_the_kernel_on_each_cpu_and_scales_by_it():
    cpus = sorted(os.sched_getaffinity(0))[:2]
    with speed.SpeedProbe(cpus) as probe:
        threading.Event().wait(0.35)
    assert all(len(probe.samples[cpu]) >= 2 for cpu in cpus)
    assert probe.seconds() > 0
    assert speed.scale(3.0, 2 * speed.REFERENCE_PROBE_S) == pytest.approx(1.5)


def _write_csv(path: Path, rows):
    path.write_text("x,value,stderr,engine,policy\n"
                    + "".join(f"{x:.10e},{v:.10e},{s:.10e},mc,{k}\n" for k, x, v, s in rows))


def test_check_counts_each_bad_point_and_a_changed_hash_fails_the_file(tmp_path):
    expected = [["P1", 0.0, 0.5], ["P1", 1.0, 0.25]]
    path = tmp_path / "fig6_mc.csv"
    _write_csv(path, [("P1", 0.0, 0.51, 0.001), ("P1", 1.0, 0.3, 0.001)])
    hashes = {}
    assert check.check_curves(path, "mc", expected, "k", hashes)[:2] == (2, 1)
    assert hashes["k"] == check.sha256(path)
    _write_csv(path, [("P1", 0.0, 0.5, 0.001), ("P1", 1.0, 0.25, 0.001)])
    assert check.check_curves(path, "mc", expected, "k", hashes)[:2] == (2, 2)
    assert check.check_curves(path, "analytic", expected)[:2] == (2, 0)
    assert check.check_curves(tmp_path / "absent.csv", "mc", expected)[:2] == (2, 2)


def test_rationale_covers_every_per_layer_metric():
    assert sorted(RATIONALE["per_layer"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert sorted(RATIONALE["workloads"]) == sorted(w["name"] for w in SPEC["workloads"])
    assert sorted(run.WORKLOADS) == sorted(RATIONALE["workloads"])


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_run_reports_every_layer_metric_nonzero_where_intended(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RUNS", tmp_path)
    if name == "mc_sweep":   # the same calls at a tenth of the trials
        monkeypatch.setitem(run.WORKLOADS, name, replace(run.WORKLOADS[name], trials=20_000))
    seed = 7
    values, context = run.trace(name, seed)
    assert sorted(values) == sorted(m["name"] for m in SPEC["per_layer"])
    zero = [metric for metric, about in RATIONALE["per_layer"].items()
            if name in about["nonzero_on"] and not values[metric]]
    assert zero == []
    assert values["numerics.quadrature_errors"] == 0
    # both passes are checked against one hash book: tracing must not
    # change a byte of the Monte Carlo output
    hashes = {}
    for p in context["passes_run"]:
        attempted, failed, problems = run.check_pass(
            run.WORKLOADS[name], seed, p, check.load_reference(), hashes)
        assert attempted > 0 and failed == 0, problems
    assert context["replay"]["mismatched_points"] == 0
