"""Tests for the observability layer (repro.obs)."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core.params import SchedulingParams
from repro.experiments.runner import (
    RunTask,
    resolve_workers,
    run_campaign,
    run_replicated,
)
from repro.obs import (
    Counters,
    RunStats,
    counters,
    disable,
    drain_spans,
    enable,
    is_enabled,
    journal_to,
    load_journal,
    span,
    summarize_journal,
)
from repro.obs.core import _NULL_SPAN
from repro.obs.provenance import capture_provenance, platform_xml_hash
from repro.workloads import ExponentialWorkload


@pytest.fixture(autouse=True)
def _tracing_off():
    """Leave the process-global tracing switch as each test found it."""
    yield
    disable()
    counters().clear()


def small_task(technique="fac2", simulator="msg-fast", **kwargs) -> RunTask:
    return RunTask(
        technique=technique,
        params=SchedulingParams(n=256, p=4),
        workload=ExponentialWorkload(1.0),
        simulator=simulator,
        **kwargs,
    )


class TestSpans:
    def test_disabled_span_is_the_shared_null_singleton(self):
        assert not is_enabled()
        assert span("a") is span("b", key=1) is _NULL_SPAN
        with span("a"):
            pass
        assert drain_spans() == []

    def test_enabled_span_records_duration_and_attributes(self):
        enable()
        with span("work", technique="ss") as s:
            pass
        assert s.duration is not None and s.duration >= 0.0
        spans = drain_spans()
        assert [sp.name for sp in spans] == ["work"]
        assert spans[0].attributes == {"technique": "ss"}
        assert spans[0].to_json()["technique"] == "ss"
        assert drain_spans() == []  # drained

    def test_disable_discards_pending_spans(self):
        enable()
        with span("pending"):
            pass
        disable()
        assert drain_spans() == []

    def test_runner_emits_spans_when_enabled(self):
        enable()
        run_campaign([small_task()], processes=1)
        names = [s.name for s in drain_spans()]
        assert "run_campaign" in names


class TestCounters:
    def test_incr_and_value(self):
        c = Counters()
        c.incr("events")
        c.incr("events", 4)
        assert c.value("events") == 5
        assert c.value("missing") == 0
        assert c.as_dict() == {"events": 5}
        c.clear()
        assert len(c) == 0

    def test_global_counters_always_count(self):
        counters().incr("smoke")
        assert counters().value("smoke") == 1


class TestRunStats:
    def test_json_roundtrip(self):
        stats = RunStats(
            backend="msg", events=10, heap_peak=3, live_peak=5,
            wall_time=0.5, extra={"k": 1},
        )
        back = RunStats.from_json(stats.to_json())
        assert back == stats
        assert back.events_per_second == pytest.approx(20.0)

    def test_every_run_result_carries_stats(self):
        for simulator in ("msg", "msg-fast", "direct", "direct-batch"):
            result = small_task(simulator=simulator).execute()
            assert result.stats is not None, simulator
            assert result.stats.backend == simulator
            assert result.stats.events > 0
            assert result.stats.wall_time > 0

    def test_stats_excluded_from_result_equality(self):
        task = small_task(seed_entropy=(1,))
        a, b = task.execute(), task.execute()
        b.stats.wall_time = a.stats.wall_time + 1.0
        assert a == b  # observability metadata is not a result

    def test_stats_survive_pickling_through_the_process_pool(self):
        results = run_replicated(
            small_task(), 4, campaign_seed=11, processes=2
        )
        assert len(results) == 4
        for result in results:
            assert result.stats is not None
            assert result.stats.backend == "msg-fast"
            assert pickle.loads(pickle.dumps(result.stats)) == result.stats


class TestJournal:
    def test_journal_lines_are_valid_json_with_provenance_first(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with journal_to(path):
            run_replicated(small_task(), 3, campaign_seed=5)
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]  # every line parses
        assert records[0]["kind"] == "provenance"
        assert records[0]["package_version"]
        task_records = [r for r in records if r["kind"] == "task"]
        assert len(task_records) == 1
        record = task_records[0]
        assert record["technique"] == "fac2"
        assert record["runs"] == 3
        assert record["backend"] == "msg-fast"
        assert record["campaign_seed"] == 5
        assert record["wall_time_s"] > 0

    def test_run_campaign_writes_one_record_per_task(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        tasks = [
            small_task(seed_entropy=(1,)),
            small_task(technique="gss", seed_entropy=(2,)),
        ]
        with journal_to(path):
            run_campaign(tasks, processes=1)
        records = load_journal(path)
        task_records = [r for r in records if r["kind"] == "task"]
        assert [r["technique"] for r in task_records] == ["fac2", "gss"]
        assert [r["seed_entropy"] for r in task_records] == [[1], [2]]

    def test_task_record_counts_replications_per_kernel(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with journal_to(path):
            # 70 runs: one 64-run lock-step block plus a 6-run heap block
            run_replicated(
                small_task(simulator="direct-batch"), 70, campaign_seed=1
            )
            run_replicated(
                small_task(technique="awf", simulator="direct-batch"), 2,
                campaign_seed=1,
            )
            run_replicated(small_task(), 2, campaign_seed=1)
        tasks = [r for r in load_journal(path) if r["kind"] == "task"]
        assert [r["kernels"] for r in tasks] == [
            {"lockstep": 64, "heap": 6}, {"stepping": 2}, {},
        ]

    def test_fallback_recorded_in_journal(self, tmp_path):
        # awf is adaptive: msg-fast cannot serve it and degrades to msg.
        path = tmp_path / "journal.jsonl"
        with journal_to(path):
            run_replicated(small_task(technique="awf"), 2, campaign_seed=3)
        records = load_journal(path)
        fallbacks = [r for r in records if r["kind"] == "fallback"]
        assert fallbacks and fallbacks[0]["requested"] == "msg-fast"
        assert fallbacks[0]["chosen"] == "msg"
        task_record = next(r for r in records if r["kind"] == "task")
        assert task_record["requested"] == "msg-fast"
        assert task_record["backend"] == "msg"

    def test_no_journal_active_writes_nothing(self, tmp_path):
        # The runner must not require a journal.
        results = run_replicated(small_task(), 2, campaign_seed=1)
        assert len(results) == 2
        assert list(tmp_path.iterdir()) == []

    def test_load_journal_rejects_broken_lines(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"kind": "provenance"}\nnot json\n')
        with pytest.raises(ValueError, match="broken.jsonl:2"):
            load_journal(path)


class TestStatsSummary:
    def test_summary_names_backends_and_slowest_tasks(self, tmp_path):
        from repro.backends import drain_fallback_events

        # The process-wide fallback log deduplicates per (cell, hop); an
        # earlier test may already have recorded awf's msg-fast -> msg
        # hop, which would keep it out of this journal.
        drain_fallback_events()
        path = tmp_path / "journal.jsonl"
        with journal_to(path):
            run_replicated(small_task(), 3, campaign_seed=5)
            run_replicated(
                small_task(technique="awf"), 2, campaign_seed=5
            )
        text = summarize_journal(load_journal(path))
        assert "msg-fast" in text
        assert "msg" in text
        assert "capability fallbacks:" in text
        assert "slowest task" in text
        assert "fac2(n=256, p=4)" in text

    def test_summary_groups_fallbacks_by_category(self):
        records = [
            {"kind": "task", "backend": "msg", "requested": "msg-fast",
             "runs": 1, "wall_time_s": 0.1, "events": 10},
            {"kind": "fallback", "requested": "msg-fast", "chosen": "msg",
             "reason": "adaptive technique", "category": "capability"},
            {"kind": "fallback", "requested": "process-pool",
             "chosen": "serial", "reason": "does not pickle",
             "category": "pickle"},
        ]
        text = summarize_journal(records)
        assert "capability fallbacks:" in text
        assert "other fallbacks (pickle):" in text
        assert "process-pool -> serial" in text

    def test_summary_zero_fallbacks_reads_as_such(self):
        records = [
            {"kind": "task", "backend": "direct-batch",
             "requested": "direct-batch", "runs": 2, "wall_time_s": 0.1,
             "events": 20},
        ]
        text = summarize_journal(records)
        assert (
            "fallbacks: none — every task ran on its requested backend"
            in text
        )

    def test_summary_kernels_line(self):
        records = [
            {"kind": "task", "backend": "direct-batch", "runs": 70,
             "wall_time_s": 0.1, "events": 20,
             "kernels": {"lockstep": 64, "heap": 6}},
            {"kind": "task", "backend": "direct-batch", "runs": 5,
             "wall_time_s": 0.1, "events": 20, "kernels": {"heap": 5}},
            {"kind": "task", "backend": "msg-fast", "runs": 2,
             "wall_time_s": 0.1, "events": 20, "kernels": {}},
        ]
        lines = summarize_journal(records).splitlines()
        kernel_lines = [ln for ln in lines if ln.startswith("kernels:")]
        assert kernel_lines == [
            "kernels: heap x11, lockstep x64 "
            "(replications per batch kernel)"
        ]

    def test_summary_without_kernels_omits_the_line(self):
        records = [
            {"kind": "task", "backend": "msg", "runs": 1,
             "wall_time_s": 0.1, "events": 10},
        ]
        assert "kernels:" not in summarize_journal(records)

    def test_summary_without_tasks_omits_fallback_line(self):
        text = summarize_journal([{"kind": "provenance"}])
        assert "fallbacks" not in text

    def test_summary_advise_section_percentiles_and_hit_share(self):
        records = [
            {"kind": "advise", "best": "fac2", "elapsed_s": 0.004,
             "cache_hits": 8, "cache_misses": 0},
            {"kind": "advise", "best": "fac2", "elapsed_s": 0.021,
             "cache_hits": 8, "cache_misses": 0},
            {"kind": "advise", "best": "gss", "elapsed_s": 0.350,
             "cache_hits": 0, "cache_misses": 8},
        ]
        text = summarize_journal(records)
        # nearest-rank percentiles: p95 of three samples is the max
        assert "p50 0.021s" in text
        assert "p95 0.350s" in text
        assert "cache-hit share 66.7%" in text
        assert "fac2 x2" in text
        assert "favorite: fac2" in text


class TestProvenance:
    def test_capture_provenance_fields(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        data = capture_provenance()
        assert data["package_version"]
        assert data["python"]
        assert data["repro_workers"] == "7"

    def test_platform_xml_hash_is_stable(self):
        from repro.simgrid.platform import star_platform

        platform = star_platform(4)
        assert platform_xml_hash(platform) == platform_xml_hash(platform)
        assert len(platform_xml_hash(platform)) == 64


class TestResolveWorkersValidation:
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_WORKERS", value)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None)

    def test_non_integer_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "abc")
        with pytest.raises(ValueError, match="REPRO_WORKERS.*'abc'"):
            resolve_workers(None)

    def test_valid_value_used(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_explicit_argument_bypasses_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "abc")
        assert resolve_workers(2) == 2
