"""Tests for span tracing: tracer mechanics, tree well-formedness, summaries.

The well-formedness class carries the most weight: a traced batch must
produce a single span tree with no orphans, no duplicate ids, and every
child's interval inside its parent's.
"""

import io
import threading

import pytest

from repro.cq.parser import parse_query
from repro.obs import trace_tools
from repro.obs.tracer import (
    NULL_SPAN,
    SpanRecord,
    Tracer,
    activate,
    active_tracer,
    deactivate,
    read_spans_jsonl,
    record_span,
    span,
    start_span,
    tracing,
)
from repro.service import BatchOptions, ContainmentService

#: Slack for interval containment checks: span clocks are read at slightly
#: different moments than their parents', so exact nesting only holds up to
#: scheduling noise.
CLOCK_SLACK = 0.050


def well_formed(records):
    """Assert the span list forms one forest of properly nested intervals."""
    ids = [record.span_id for record in records]
    assert len(ids) == len(set(ids)), "duplicate span ids"
    by_id = {record.span_id: record for record in records}
    for record in records:
        assert record.duration >= 0.0
        if record.parent_id is None:
            continue
        assert record.parent_id in by_id, f"orphan span {record.name!r}"
        parent = by_id[record.parent_id]
        assert record.start >= parent.start - CLOCK_SLACK, (
            f"{record.name} starts before its parent {parent.name}"
        )
        assert (
            record.start + record.duration
            <= parent.start + parent.duration + CLOCK_SLACK
        ), f"{record.name} ends after its parent {parent.name}"


class TestTracerMechanics:
    def test_span_context_manager_nests_on_the_thread_stack(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        records = {record.name: record for record in tracer.records()}
        assert records["inner"].parent_id == outer.id
        assert records["outer"].parent_id is None

    def test_start_does_not_touch_the_stack(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            handle = tracer.start("cross-thread")
            assert tracer.current_id() == outer.id  # still the ctx-manager span
            handle.finish()
        names = {record.name for record in tracer.records()}
        assert names == {"outer", "cross-thread"}

    def test_record_files_retrospective_spans(self):
        tracer = Tracer()
        started = tracer.epoch + 1.0
        span_id = tracer.record("round", started, 0.25, cuts=3)
        (record,) = tracer.records()
        assert record.span_id == span_id
        assert record.start == pytest.approx(1.0)
        assert record.duration == 0.25
        assert record.attrs == {"cuts": 3}

    def test_export_jsonl_round_trips(self):
        tracer = Tracer()
        with tracer.span("outer", tag="x"):
            with tracer.span("inner"):
                pass
        buffer = io.StringIO()
        assert tracer.export_jsonl(buffer) == 2
        loaded = read_spans_jsonl(io.StringIO(buffer.getvalue()))
        assert [record.name for record in loaded] == ["outer", "inner"]
        assert loaded[0].attrs == {"tag": "x"}
        well_formed(loaded)

    def test_global_activation_is_exclusive(self):
        tracer = Tracer()
        activate(tracer)
        try:
            assert active_tracer() is tracer
            with pytest.raises(RuntimeError):
                activate(Tracer())
        finally:
            assert deactivate() is tracer
        assert active_tracer() is None

    def test_module_helpers_are_noops_when_inactive(self):
        assert active_tracer() is None
        with span("ignored") as handle:
            assert handle is NULL_SPAN
        assert start_span("ignored") is NULL_SPAN
        record_span("ignored", 0.0, 1.0)  # must not raise

    def test_module_helpers_hit_the_active_tracer(self):
        with tracing() as tracer:
            with span("outer"):
                record_span("retro", tracer.epoch, 0.1)
            start_span("floating").finish()
        names = sorted(record.name for record in tracer.records())
        assert names == ["floating", "outer", "retro"]


class TestBatchSpanTree:
    def run_traced_batch(self):
        pairs = [
            (
                parse_query("R(x,y), R(y,z), R(z,x)", name="tri"),
                parse_query("R(a,b), R(a,c)", name="vee"),
            ),
            (
                parse_query("R(x,y), R(y,z), R(z,x)", name="tri2"),
                parse_query("R(a,b), R(a,c)", name="vee2"),
            ),
            (
                parse_query("R(x,y), R(y,z)", name="path"),
                parse_query("R(a,b), R(b,c), R(c,d)", name="path3"),
            ),
        ]
        service = ContainmentService(BatchOptions(on_error="capture"))
        with tracing() as tracer:
            report = service.run(pairs)
        service.close()
        assert all(result.status.value != "unknown" for result in report.results)
        return tracer.records()

    def test_tree_is_well_formed(self):
        records = self.run_traced_batch()
        well_formed(records)

    def test_single_request_root_and_expected_phases(self):
        records = self.run_traced_batch()
        roots = [record for record in records if record.parent_id is None]
        assert [root.name for root in roots] == ["request"]
        by_name = {record.name: record for record in records}
        assert by_name["batch"].parent_id == roots[0].span_id
        names = {record.name for record in records}
        assert {"request", "batch", "pair", "canonicalize", "plan-cache", "advance"} <= names
        assert by_name["canonicalize"].parent_id == roots[0].span_id
        assert by_name["plan-cache"].parent_id == roots[0].span_id
        batch_id = by_name["batch"].span_id
        pair_spans = [record for record in records if record.name == "pair"]
        assert len(pair_spans) == 2  # the duplicate triangle pair deduplicates
        assert all(record.parent_id == batch_id for record in pair_spans)
        outcomes = {record.attrs.get("outcome") for record in pair_spans}
        assert outcomes == {"contained", "not_contained"}

    def test_advances_attach_under_their_pair(self):
        records = self.run_traced_batch()
        pair_ids = {
            record.span_id for record in records if record.name == "pair"
        }
        advances = [record for record in records if record.name == "advance"]
        assert advances
        assert all(record.parent_id in pair_ids for record in advances)

    def test_lp_chunks_attach_under_the_batch(self):
        records = self.run_traced_batch()
        [batch] = [record for record in records if record.name == "batch"]
        chunks = [record for record in records if record.name == "lp-chunk"]
        assert chunks
        assert all(record.parent_id == batch.span_id for record in chunks)

    def test_scalar_solves_attach_under_their_pair(self):
        # star3 ⋢ star2 fails its Γn check and is refuted through scalar
        # normal/modular solves.
        pair = (parse_query("R(c,x1), R(c,x2), R(c,x3)"), parse_query("R(c,x1), R(c,x2)"))
        with tracing() as tracer:
            ContainmentService().run([pair])
        records = tracer.records()
        [pair_span] = [record for record in records if record.name == "pair"]
        scalars = [record for record in records if record.name == "lp-scalar"]
        assert scalars
        assert all(record.parent_id == pair_span.span_id for record in scalars)

    def test_batch_on_another_thread_is_its_own_tree(self):
        # Spans nest through the calling thread's own stack: a batch run on a
        # second thread must not attach under a span the first thread holds
        # open, and its chunks must still find their batch.
        pair = (parse_query("R(x,y), R(y,z), R(z,x)"), parse_query("R(a,b), R(a,c)"))
        with tracing() as tracer:
            with span("outer") as outer:
                worker = threading.Thread(target=ContainmentService().run, args=([pair],))
                worker.start()
                worker.join(timeout=120)
        assert not worker.is_alive()
        records = tracer.records()
        well_formed(records)
        roots = [record for record in records if record.parent_id is None]
        assert sorted(root.name for root in roots) == ["outer", "request"]
        assert not [record for record in records if record.parent_id == outer.id]
        [batch] = [record for record in records if record.name == "batch"]
        chunks = [record for record in records if record.name == "lp-chunk"]
        assert chunks
        assert all(record.parent_id == batch.span_id for record in chunks)


class TestTraceTools:
    def sample_records(self):
        return [
            SpanRecord(span_id=1, parent_id=None, name="batch", start=0.0, duration=10.0),
            SpanRecord(span_id=2, parent_id=1, name="pair", start=0.0, duration=9.0,
                       attrs={"index": 0}),
            SpanRecord(span_id=3, parent_id=1, name="pair", start=1.0, duration=4.0,
                       attrs={"index": 1}),
            SpanRecord(span_id=4, parent_id=2, name="advance", start=0.5, duration=6.0),
        ]

    def test_phase_totals_include_self_time(self):
        totals = trace_tools.phase_totals(self.sample_records())
        assert totals["batch"]["count"] == 1
        assert totals["pair"]["count"] == 2
        assert totals["pair"]["seconds"] == pytest.approx(13.0)
        # pair self time: (9 - 6) from pair#0 plus all 4.0 of pair#1.
        assert totals["pair"]["self_seconds"] == pytest.approx(7.0)

    def test_critical_path_is_duration_greedy(self):
        path = trace_tools.critical_path(self.sample_records())
        assert [step["name"] for step in path] == ["batch", "pair", "advance"]
        assert path[1]["fraction_of_parent"] == pytest.approx(0.9)

    def test_dangling_parent_becomes_a_root(self):
        records = [
            SpanRecord(span_id=5, parent_id=99, name="stray", start=0.0, duration=1.0)
        ]
        roots = trace_tools.build_forest(records)
        assert [root.name for root in roots] == ["stray"]

    def test_summarize_and_format(self):
        summary = trace_tools.summarize(self.sample_records(), top=1)
        assert summary["spans"] == 4
        assert len(summary["slowest_pairs"]) == 1
        assert summary["slowest_pairs"][0]["seconds"] == 9.0
        text = trace_tools.format_summary(summary)
        assert "critical path:" in text
        assert "slowest pairs:" in text
