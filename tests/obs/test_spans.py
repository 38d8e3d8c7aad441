"""Span recorder: deterministic ids, nesting, grafting, serialisation."""

from repro.obs.spans import Span, SpanRecorder, spans_from_jsonl


def test_ids_monotonic_from_one():
    recorder = SpanRecorder()
    spans = [recorder.begin(f"s{i}") for i in range(3)]
    assert [s.span_id for s in spans] == [1, 2, 3]


def test_nested_spans_parent_implicitly():
    recorder = SpanRecorder()
    with recorder.span("sweep") as outer:
        with recorder.span("cell", x=1) as cell:
            with recorder.span("measure") as inner:
                pass
    assert outer.parent_id is None
    assert cell.parent_id == outer.span_id
    assert inner.parent_id == cell.span_id
    assert all(s.end_s is not None for s in recorder.spans)


def test_end_closes_unclosed_children():
    recorder = SpanRecorder()
    outer = recorder.begin("outer")
    inner = recorder.begin("inner")
    recorder.end(outer)
    assert inner.end_s is not None
    assert recorder.current() is None


def test_explicit_parent_override():
    recorder = SpanRecorder()
    root = recorder.begin("root")
    recorder.end(root)
    sibling = recorder.begin("sibling", parent_id=root.span_id)
    assert sibling.parent_id == root.span_id


def test_events_attach_to_innermost_open_span():
    recorder = SpanRecorder()
    with recorder.span("sweep"):
        with recorder.span("cell"):
            recorder.event("cache_hit", index=0)
        recorder.event("cache_miss", index=1)
    sweep, cell = recorder
    assert [e.name for e in cell.events] == ["cache_hit"]
    assert [e.name for e in sweep.events] == ["cache_miss"]
    # No open span: event is a no-op, not an error.
    assert recorder.event("orphan") is None


def test_lookup_by_id_and_length():
    recorder = SpanRecorder()
    with recorder.span("a") as a:
        with recorder.span("b") as b:
            pass
    assert b.parent_id == a.span_id
    assert recorder.get(a.span_id) is a
    assert len(recorder) == 2


def test_jsonl_round_trip(tmp_path):
    recorder = SpanRecorder()
    with recorder.span("sweep", tag="t"):
        with recorder.span("cell", x=3):
            recorder.event("cache_miss", index=0)
    path = tmp_path / "spans.jsonl"
    recorder.write_jsonl(path)
    reloaded = spans_from_jsonl(path)
    assert [s.to_dict() for s in reloaded] == [s.to_dict() for s in recorder.spans]


def test_graft_reids_remaps_and_reparents():
    worker = SpanRecorder(process="worker-1")
    with worker.span("cell", x=1):
        with worker.span("measure"):
            pass
    parent = SpanRecorder()
    sweep = parent.begin("sweep")
    grafted = parent.graft(worker.to_rows(), process="worker-1")
    parent.end(sweep)

    cell, measure = grafted
    assert cell.span_id == 2 and measure.span_id == 3  # fresh monotonic ids
    assert cell.parent_id == sweep.span_id  # batch root re-parented
    assert measure.parent_id == cell.span_id  # intra-batch link remapped
    assert all(s.process == "worker-1" for s in grafted)


def test_graft_accepts_span_objects():
    parent = SpanRecorder()
    span = Span(span_id=7, name="cell", start_s=1.0, end_s=2.0)
    grafted = parent.graft([span], process="w")
    assert grafted[0].span_id == 1 and grafted[0].parent_id is None


def test_structure_ignores_time_process_and_ids():
    def build(process):
        recorder = SpanRecorder(process=process)
        with recorder.span("sweep", tag="t"):
            with recorder.span("cell", x=1):
                recorder.event("cache_miss", index=0)
        return recorder

    assert build("main").structure() == build("worker-9").structure()


def test_structure_serial_equals_grafted():
    serial = SpanRecorder()
    with serial.span("sweep"):
        with serial.span("cell", x=1):
            pass
        with serial.span("cell", x=2):
            pass

    worker_a = SpanRecorder(process="worker-a")
    with worker_a.span("cell", x=1):
        pass
    worker_b = SpanRecorder(process="worker-b")
    with worker_b.span("cell", x=2):
        pass
    parent = SpanRecorder()
    sweep = parent.begin("sweep")
    parent.graft(worker_a.to_rows(), process="worker-a")
    parent.graft(worker_b.to_rows(), process="worker-b")
    parent.end(sweep)

    assert parent.structure() == serial.structure()
