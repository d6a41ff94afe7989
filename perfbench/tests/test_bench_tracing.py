import time

from perfbench.tracing import NullRecorder, Recorder, Span
from perfbench.workloads import Job, make_inputs, run_job

# Small versions of every job kind, so the test stays fast.
SMALL_JOBS = (Job("product_invariants", (2, 2)), Job("rp_invariants", (5,)),
              Job("schedule", (2, 3)), Job("greedy", (2, 3)),
              Job("product_manifold", (2, 2)), Job("rp_manifold", (5,)))


def test_self_time_subtracts_children():
    rec = Recorder()
    rec.spans = [Span("a", 0.0, 10.0, None), Span("b", 1.0, 4.0, 0),
                 Span("c", 5.0, 6.0, 0), Span("d", 2.0, 3.0, 1),
                 Span("b", 11.0, 12.0, None)]
    assert rec.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0, "d": 1.0}
    assert rec.covered() == 11.0


def test_spans_nest_by_call_order():
    rec = Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            time.sleep(0.001)
        with rec.span("inner"):
            pass
    rec.count("things", 3)
    rec.count("things")
    assert [(s.name, s.parent) for s in rec.spans] == [
        ("outer", None), ("inner", 0), ("inner", 0)]
    assert all(s.end >= s.start for s in rec.spans)
    assert rec.counts["things"] == 4
    times = rec.self_times()
    assert times["outer"] + times["inner"] == rec.covered()


def test_null_recorder_records_nothing():
    rec = NullRecorder()
    with rec.span("x"):
        with rec.span("y"):
            pass
    rec.count("things", 5)
    assert rec.span("x") is rec.span("y")


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    inputs = make_inputs(SMALL_JOBS, seed=7)
    rec = Recorder()
    for job, data in zip(SMALL_JOBS, inputs):
        plain = run_job(job, data, NullRecorder(), tmp_path)
        traced = run_job(job, data, rec, tmp_path)
        assert traced.text == plain.text
        assert traced.files == plain.files
    assert rec.spans and all(s.parent is None for s in rec.spans)
