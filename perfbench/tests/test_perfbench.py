"""Tests of the benchmark itself (not of the program).

    python3 -m pytest perfbench/tests -q

Everything here runs small cells, so the suite takes seconds.
"""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench.tracing import LAYER_METRICS, Tracer
from perfbench.workloads import (
    ADVISE_CELL,
    ADVISE_ROUND,
    AdviseMix,
    FiguresQuick,
    Outcome,
    advise_queries,
    check_answer,
    sweep_passes,
    sweep_task,
)
from repro import cache as repro_cache
from repro.experiments import runner
from repro.figures.drift import default_reference_dir
from repro.serve.advisor import Advisor

ROOT = Path(__file__).resolve().parents[2]
SMALL_CELL = {**ADVISE_CELL, "n": 512, "p": 8, "runs": 3}


def test_same_seed_same_query_list_and_cell_order():
    assert advise_queries(7, 40) == advise_queries(7, 40)
    assert advise_queries(7, 40) != advise_queries(8, 40)
    assert sweep_passes(7, 3) == sweep_passes(7, 3)
    assert sweep_passes(7, 3) != sweep_passes(8, 3)


def test_query_stream_shape():
    stream = advise_queries(3, 50)
    assert stream[0][0] == "cold"
    seen = set()
    for start in range(0, len(stream), ADVISE_ROUND):
        kinds = [kind for kind, _ in stream[start:start + ADVISE_ROUND]]
        assert kinds.count("cold") == 1
    for kind, payload in stream:
        key = json.dumps(payload, sort_keys=True)
        assert (key not in seen) == (kind == "cold")
        seen.add(key)


def test_sweep_pass_covers_every_cell_once():
    for cells in sweep_passes(1, 2):
        assert len({(t, p) for t, p, _ in cells}) == len(cells) == 40


def test_small_cell_twice_is_bit_identical(tmp_path):
    results = []
    for attempt in range(2):
        with repro_cache.cache_to(tmp_path / f"cache-{attempt}"):
            results.append(runner.run_replicated(
                sweep_task("FAC", 8, n=256), 64, campaign_seed=11,
                processes=1,
            ))
    assert results[0] == results[1]
    assert [r.makespan for r in results[0]] == \
        [r.makespan for r in results[1]]


def _tampered_references(tmp_path: Path) -> Path:
    reference = tmp_path / "reference"
    shutil.copytree(default_reference_dir(), reference)
    path = reference / "fig5.csv"
    rows = list(csv.reader(path.open()))
    rows[1][1] = repr(float(rows[1][1]) * 1.5)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return reference


@pytest.mark.parametrize("tamper", [False, True])
def test_tampered_reference_lowers_figures_ok_share(tmp_path, tamper):
    reference = _tampered_references(tmp_path) if tamper else None
    workload = FiguresQuick(tmp_path / "run", 1, only=("table2", "fig5"),
                            reference_dir=reference, warm_per_cold=2)
    try:
        out = workload.measure(0.0)
    finally:
        workload.close()
    assert out.attempted == 3
    assert len(out.cold) == 1 and len(out.warm) == 2
    assert out.failed == (3 if tamper else 0), out.failures


def test_check_answer_flags_corrupted_rankings():
    rows = [{"technique": t, "makespan_mean": m}
            for t, m in (("ss", 1.0), ("fac", 2.0), ("gss", 3.0))]
    good = {"ranking": rows, "cache": {"misses": 0}}
    assert check_answer(200, good, None, 3) == []
    assert check_answer(200, good, good, 3) == []
    swapped = {"ranking": [rows[1], rows[0], rows[2]],
               "cache": {"misses": 0}}
    assert check_answer(200, swapped, None, 3)
    assert check_answer(200, {**good, "cache": {"misses": 1}}, good, 3)
    assert check_answer(200, {"ranking": rows[:2]}, None, 3)
    assert check_answer(500, {"message": "boom"}, None, 3)


def _advise(tmp_path: Path) -> Outcome:
    workload = AdviseMix(tmp_path, 5, cell=SMALL_CELL, min_samples=8)
    try:
        workload.setup()
        return workload.measure(0.0)
    finally:
        workload.close()


def test_advise_mix_small_run_is_correct(tmp_path):
    out = _advise(tmp_path)
    assert out.attempted == 8 and out.failed == 0, out.failures
    assert len(out.cold) == 2 and len(out.warm) == 6


def test_corrupted_ranking_lowers_advise_ok_share(tmp_path, monkeypatch):
    rank = Advisor._rank

    def reversed_rank(tasks, groups, runs):
        return list(reversed(rank(tasks, groups, runs)))

    monkeypatch.setattr(Advisor, "_rank", staticmethod(reversed_rank))
    out = _advise(tmp_path)
    assert out.attempted == 8 and out.failed == 8


def test_percentile_guard_refuses_thin_tails():
    with pytest.raises(bench.ReportError):
        bench.percentile([float(i) for i in range(99)], 0.9)
    assert bench.percentile([float(i) for i in range(100)], 0.9) == 89.0


def _fake_outcome() -> Outcome:
    out = Outcome(latencies=[0.01 * (i + 1) for i in range(100)],
                  cold=[1.0], warm=[0.1, 0.2])
    out.check(True, "")
    return out


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = bench.end_to_end(_fake_outcome(), 0.5, 3)
    assert list(e2e) == list(bench.E2E_METRICS) + list(bench.UNGATED_METRICS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.E2E_METRICS
    layers = Tracer().layer_metrics(1e-6)
    assert list(layers) == list(LAYER_METRICS)
    per_layer = {**LAYER_METRICS, **{
        f"traced.{k}": bench.E2E_UNITS[k] for k in bench.TRACED_E2E
    }}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert [w["name"] for w in spec["workloads"]] == \
        ["figures-quick", "advise-mix", "sweep-deep"]


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        (0, -1, "runner.call", 0.0, 10.0, 0),
        (1, 0, "cache.get", 1.0, 3.0, 0),
        (2, 0, "runner.call", 4.0, 6.0, 0),
        (3, 2, "directsim.kernel", 4.5, 5.5, 0),
    ]
    self_time, inclusive, calls = tracer.layer_times()
    assert self_time["runner.call"] == pytest.approx(6.0 + 1.0)
    assert inclusive["runner.call"] == pytest.approx(10.0)
    assert self_time["directsim.kernel"] == pytest.approx(1.0)
    assert calls["runner.call"] == 2


def test_traced_pooled_sweep_reports_worker_side_kernel_time(tmp_path):
    tracer = Tracer()
    tracer.install(workers=2)
    try:
        with repro_cache.cache_to(tmp_path / "cache"):
            runner.run_replicated(sweep_task("FAC", 8, n=256), 256,
                                  campaign_seed=4, processes=2)
    finally:
        tracer.uninstall()
        runner.shutdown_pool()
    layers = tracer.layer_metrics(1e-6)
    assert layers["directsim.kernel_s"][0] > 0
    assert layers["directsim.assignments"][0] > 0
    assert layers["runner.pool_utilisation"][0] > 0
    assert layers["cache.puts"][0] == 1
    assert layers["cache.bytes_written"][0] > 0
