"""Tests of the TraceBus: control plane, recorders, JSONL, ambient defaults."""

import pytest

from repro.obs.bus import (NullRecorder, TraceBus, TraceRecorder,
                           default_paranoid, default_recorder,
                           install_tracing, read_jsonl, reset_tracing,
                           tracing)
from repro.obs.events import IO_COMPLETE, IO_SUBMIT, TraceEvent
from repro.sim import Simulator


# -- control plane ----------------------------------------------------------
def test_emit_reaches_only_matching_source(sim):
    got_a, got_b = [], []
    src_a, src_b = object(), object()
    sim.bus.subscribe(IO_SUBMIT, got_a.append, source=src_a)
    sim.bus.subscribe(IO_SUBMIT, got_b.append, source=src_b)
    sim.bus.emit(IO_SUBMIT, src_a, "req1")
    assert got_a == ["req1"]
    assert got_b == []


def test_subscribers_run_in_subscription_order(sim):
    order = []
    src = object()
    sim.bus.subscribe(IO_SUBMIT, lambda _: order.append("first"), source=src)
    sim.bus.subscribe(IO_SUBMIT, lambda _: order.append("second"), source=src)
    sim.bus.emit(IO_SUBMIT, src, None)
    assert order == ["first", "second"]


def test_unsubscribe_stops_delivery(sim):
    got = []
    src = object()
    sim.bus.subscribe(IO_SUBMIT, got.append, source=src)
    sim.bus.unsubscribe(IO_SUBMIT, got.append, source=src)
    sim.bus.emit(IO_SUBMIT, src, "x")
    assert got == []


def test_emit_with_no_subscribers_is_harmless(sim):
    sim.bus.emit(IO_COMPLETE, object(), "anything")


# -- recorders --------------------------------------------------------------
def test_null_recorder_is_the_default(sim):
    assert isinstance(sim.bus.recorder, NullRecorder)
    assert sim.bus.recorder.active is False
    assert sim.bus.recording is False


def test_trace_recorder_captures_events():
    rec = TraceRecorder()
    sim = Simulator(seed=1, recorder=rec)
    sim.schedule(5.0, lambda: sim.bus.record(IO_SUBMIT, {"req": 1}))
    sim.run()
    assert rec.count == 1
    (ev,) = rec.events
    assert ev.topic == IO_SUBMIT
    assert ev.time == 5.0
    assert ev.fields == {"req": 1}
    assert rec.by_topic(IO_SUBMIT) == [ev]
    assert rec.topic_counts() == {IO_SUBMIT: 1}


def test_trace_digest_tracks_content():
    rec_a, rec_b = TraceRecorder(), TraceRecorder()
    for rec, req in ((rec_a, 1), (rec_b, 2)):
        sim = Simulator(seed=1, recorder=rec)
        sim.bus.record(IO_SUBMIT, {"req": req})
    assert rec_a.trace_digest() != rec_b.trace_digest()


def test_keep_events_false_keeps_only_the_digest():
    rec = TraceRecorder(keep_events=False)
    sim = Simulator(seed=1, recorder=rec)
    sim.bus.record(IO_SUBMIT, {"req": 1})
    assert rec.count == 1
    assert rec.events is None
    assert rec.trace_digest()
    with pytest.raises(RuntimeError):
        rec.by_topic(IO_SUBMIT)
    with pytest.raises(RuntimeError):
        rec.write_jsonl("/dev/null")


def test_jsonl_round_trip(tmp_path):
    rec = TraceRecorder()
    sim = Simulator(seed=1, recorder=rec)
    sim.bus.record(IO_SUBMIT, {"req": 1, "offset": 4096})
    sim.schedule(3.5, lambda: sim.bus.record(IO_COMPLETE,
                                             {"req": 1, "latency": 3.5}))
    sim.run()
    path = tmp_path / "trace.jsonl"
    assert rec.write_jsonl(path) == 2
    back = read_jsonl(path)
    assert [ev.to_json() for ev in back] == \
        [ev.to_json() for ev in rec.events]


def test_trace_event_dict_round_trip():
    ev = TraceEvent(1.5, IO_SUBMIT, {"req": 3, "pid": 7})
    back = TraceEvent.from_dict(ev.to_dict())
    assert (back.time, back.topic, back.fields) == \
        (ev.time, ev.topic, ev.fields)


def test_jsonl_round_trip_with_every_optional_field(tmp_path):
    """Events exercising the full field palette survive export/import:
    None (a probe verdict's deadline), bools, negative ints, floats,
    strings, and the nested ``stages`` mapping of span events."""
    from repro.obs.events import RPC_SEND, SPAN_REQUEST, VERDICT
    rec = TraceRecorder()
    sim = Simulator(seed=1, recorder=rec)
    sim.bus.record(VERDICT, {
        "req": 3, "op": "read", "offset": 4096, "size": 4096, "pid": 101,
        "predictor": "mittcfq", "accept": True, "probe": False,
        "shadow": False, "deadline": None, "predicted_wait": 120.5,
        "predicted_service": 80.0, "device": "n0", "dev_kind": "disk",
        "sched": "cfq"})
    sim.bus.record(RPC_SEND, {"src": -1, "dst": 2, "latency": 310.25})
    sim.bus.record(SPAN_REQUEST, {
        "req": 3, "total": 1500.0,
        "stages": {"scheduler-queue": 500.0, "device-service": 1000.0}})
    path = tmp_path / "full.jsonl"
    rec.write_jsonl(path)
    back = read_jsonl(path)
    assert [(ev.time, ev.topic, ev.fields) for ev in back] == \
        [(ev.time, ev.topic, ev.fields) for ev in rec.events]


def test_read_jsonl_rejects_truncated_line(tmp_path):
    from repro.obs.bus import TraceFormatError
    path = tmp_path / "trunc.jsonl"
    path.write_text('{"t":0.0,"topic":"io.submit","req":1}\n{"t":1.0,"to')
    with pytest.raises(TraceFormatError, match="trunc.jsonl:2"):
        read_jsonl(path)


def test_read_jsonl_rejects_non_event_json(tmp_path):
    from repro.obs.bus import TraceFormatError
    path = tmp_path / "other.jsonl"
    path.write_text('{"not": "an event"}\n')
    with pytest.raises(TraceFormatError, match="other.jsonl:1"):
        read_jsonl(path)


def test_read_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.jsonl"
    path.write_text('{"t":0.0,"topic":"io.submit","req":1}\n\n')
    assert len(read_jsonl(path)) == 1


# -- ambient tracing defaults -----------------------------------------------
def test_tracing_context_installs_and_resets():
    rec = TraceRecorder()
    with tracing(rec, paranoid=True) as got:
        assert got is rec
        assert default_recorder() is rec
        assert default_paranoid() is True
        sim = Simulator(seed=3)
        assert sim.bus.recorder is rec
        assert sim.sanitizer is not None
    assert default_recorder() is None
    assert default_paranoid() is False
    assert isinstance(Simulator(seed=3).bus.recorder, NullRecorder)


def test_install_tracing_reset_on_exception():
    rec = TraceRecorder()
    install_tracing(rec)
    try:
        assert Simulator(seed=3).bus.recorder is rec
    finally:
        reset_tracing()
    assert default_recorder() is None


def test_explicit_recorder_overrides_ambient():
    ambient, explicit = TraceRecorder(), TraceRecorder()
    with tracing(ambient):
        sim = Simulator(seed=3, recorder=explicit)
        assert sim.bus.recorder is explicit


def test_paranoid_trace_feeds_sanitizer_hash():
    """Recorded events must change the sanitizer hash (and only then)."""

    def run(record):
        sim = Simulator(seed=5, paranoid=True, recorder=TraceRecorder())
        if record:
            sim.bus.record(IO_SUBMIT, {"req": 1})
        sim.schedule(1.0, lambda: None)
        sim.run()
        return sim.trace_hash()

    assert run(True) != run(False)
    assert run(True) == run(True)


def test_untraced_paranoid_hash_ignores_recorder_absence():
    """Without a recorder the bus records nothing, so the sanitizer hash
    is the pure event-loop hash (historical golden hashes stay valid)."""

    def run():
        sim = Simulator(seed=5, paranoid=True)
        sim.schedule(1.0, lambda: None)
        sim.run()
        return sim.trace_hash()

    assert run() == run()


# -- streaming + gzip traces -------------------------------------------------
def _two_event_recorder():
    rec = TraceRecorder()
    sim = Simulator(seed=1, recorder=rec)
    sim.bus.record(IO_SUBMIT, {"req": 1, "offset": 4096})
    sim.schedule(3.5, lambda: sim.bus.record(IO_COMPLETE,
                                             {"req": 1, "latency": 3.5}))
    sim.run()
    return rec


def test_iter_jsonl_streams_lazily(tmp_path):
    from repro.obs.bus import iter_jsonl
    rec = _two_event_recorder()
    path = tmp_path / "trace.jsonl"
    rec.write_jsonl(path)
    it = iter_jsonl(path)
    first = next(it)
    assert first.topic == IO_SUBMIT
    assert [ev.topic for ev in it] == [IO_COMPLETE]


def test_iter_jsonl_error_carries_line_number(tmp_path):
    from repro.obs.bus import TraceFormatError, iter_jsonl
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t":0.0,"topic":"io.submit","req":1}\nnot json\n')
    it = iter_jsonl(path)
    next(it)
    with pytest.raises(TraceFormatError, match="bad.jsonl:2"):
        next(it)


def test_gzip_jsonl_round_trip(tmp_path):
    rec = _two_event_recorder()
    path = tmp_path / "trace.jsonl.gz"
    assert rec.write_jsonl(path) == 2
    import gzip
    with gzip.open(path, "rt") as fh:  # genuinely gzip on disk
        assert fh.readline().startswith('{"t":')
    back = read_jsonl(path)
    assert [ev.to_json() for ev in back] == \
        [ev.to_json() for ev in rec.events]


def test_gzip_export_is_byte_stable(tmp_path):
    """mtime=0 in the gzip header: two exports of the same trace are
    byte-identical (same-seed .gz artifacts can be cmp'd in CI)."""
    rec = _two_event_recorder()
    path_a = tmp_path / "a.jsonl.gz"
    path_b = tmp_path / "b.jsonl.gz"
    rec.write_jsonl(path_a)
    rec.write_jsonl(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_gzip_trace_error_contract_matches_plain(tmp_path):
    import gzip
    from repro.obs.bus import TraceFormatError
    path = tmp_path / "bad.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        fh.write('{"t":0.0,"topic":"io.submit","req":1}\n{"nope":1}\n')
    with pytest.raises(TraceFormatError, match="bad.jsonl.gz:2"):
        read_jsonl(path)


def test_open_trace_plain_passthrough(tmp_path):
    from repro.obs.bus import open_trace
    path = tmp_path / "plain.txt"
    with open_trace(path, "w") as fh:
        fh.write("hello\n")
    assert path.read_bytes() == b"hello\n"
    with open_trace(path) as fh:
        assert fh.read() == "hello\n"


# -- the hashed line is the exported line ------------------------------------
def _fig3(recorder, seed=7):
    """Record the fig3 replay slice (it runs its own simulator clock)."""
    from repro.experiments.fig3 import replay_scenario
    replay_scenario(Simulator(seed=seed, recorder=recorder))
    return recorder


def _blake(data):
    import hashlib
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def test_digest_is_blake2b_of_the_plain_export(tmp_path):
    rec = _fig3(TraceRecorder())
    path = tmp_path / "trace.jsonl"
    rec.write_jsonl(path)
    assert rec.trace_digest() == _blake(path.read_bytes())


def test_digest_pinned_on_fig3_seed_7():
    """Both digests of the fig3 slice as the eager per-record encoder
    produced them: lazy folding and the prebuilt encoders keep the
    bytes."""
    rec = _fig3(TraceRecorder())
    assert rec.count == 714
    assert rec.trace_digest() == "673e428320d2b86662323e9c087f921e"
    assert rec.canonical_digest() == "7acc3e812c5242c5ad45d50e4fcbb0a5"


def test_kept_and_unkept_recorders_agree():
    eager = _fig3(TraceRecorder(keep_events=False))
    lazy = _fig3(TraceRecorder())
    assert eager.count == lazy.count > 0
    assert lazy.trace_digest() == eager.trace_digest()


@pytest.mark.parametrize("batch", [None, 7])
def test_mid_run_digest_matches_eager(monkeypatch, tmp_path, batch):
    """A digest taken mid-run leaves a watermark; later digests and
    exports fold only what lies past it, also when it falls inside a
    batch."""
    from repro.obs import bus
    if batch is not None:
        monkeypatch.setattr(bus, "_BATCH", batch)
    events = _fig3(TraceRecorder()).events
    split = len(events) // 2 + 3
    eager, lazy = TraceRecorder(keep_events=False), TraceRecorder()
    for ev in events[:split]:
        eager.record(ev)
        lazy.record(ev)
    mid = lazy.trace_digest()
    assert mid == eager.trace_digest()
    for ev in events[split:]:
        eager.record(ev)
        lazy.record(ev)
    # The export runs over the watermark before any digest moves it.
    path = tmp_path / "trace.jsonl"
    lazy.write_jsonl(path)
    assert lazy.trace_digest() == eager.trace_digest() == \
        _blake(path.read_bytes()) != mid


def test_export_then_digest_encodes_each_event_once(monkeypatch, tmp_path):
    rec = _fig3(TraceRecorder())
    encoded = []
    to_json = TraceEvent.to_json
    monkeypatch.setattr(TraceEvent, "to_json",
                        lambda ev: encoded.append(ev) or to_json(ev))
    rec.write_jsonl(tmp_path / "trace.jsonl")
    rec.trace_digest()
    rec.trace_digest()
    assert len(encoded) == rec.count


def test_repeated_exports_leave_the_digest_alone(tmp_path):
    eager = _fig3(TraceRecorder(keep_events=False))
    rec = _fig3(TraceRecorder())
    rec.write_jsonl(tmp_path / "a.jsonl")
    rec.write_jsonl(tmp_path / "b.jsonl")
    assert rec.trace_digest() == rec.trace_digest() == eager.trace_digest()
    assert (tmp_path / "a.jsonl").read_bytes() == \
        (tmp_path / "b.jsonl").read_bytes()


def test_gzip_export_decompresses_to_the_plain_export(tmp_path):
    import gzip
    rec = _fig3(TraceRecorder())
    rec.write_jsonl(tmp_path / "t.jsonl.gz")
    rec.write_jsonl(tmp_path / "t.jsonl")
    assert gzip.decompress((tmp_path / "t.jsonl.gz").read_bytes()) == \
        (tmp_path / "t.jsonl").read_bytes()


def test_same_seed_gzip_exports_are_byte_identical(tmp_path):
    for name in ("a", "b"):
        _fig3(TraceRecorder()).write_jsonl(tmp_path / f"{name}.jsonl.gz")
    assert (tmp_path / "a.jsonl.gz").read_bytes() == \
        (tmp_path / "b.jsonl.gz").read_bytes()


def test_metered_recorder_folds_every_event():
    from repro.obs.registry import MeteredRecorder, MetricsRegistry
    plain = _fig3(TraceRecorder())
    metered = _fig3(MeteredRecorder(MetricsRegistry()))
    counters = metered.registry.snapshot()["counters"]
    folded = {name[len("events."):]: value
              for name, value in counters.items()
              if name.startswith("events.")}
    assert folded == plain.topic_counts()
    assert sum(folded.values()) == metered.count == plain.count
    assert metered.trace_digest() == plain.trace_digest()
