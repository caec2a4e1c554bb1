"""The TraceBus: one synchronized event stream per simulator.

The bus serves two planes with one mechanism:

* **control plane** — source-scoped subscriptions (``subscribe(topic, fn,
  source=obj)``) replace the ad-hoc listener lists layers used to wire by
  hand (scheduler dispatch/complete listeners, accuracy hooks).  Emission
  is synchronous and deterministic: subscribers run in subscription order
  at the emitting call site, exactly like the lists they replace.

* **trace plane** — an optional :class:`TraceRecorder` materializes typed
  :class:`~repro.obs.events.TraceEvent` records.  The default
  :class:`NullRecorder` is a single ``active`` flag check at every emit
  site: no event object is ever constructed, so the un-traced hot path
  stays within noise of the pre-bus code (CI's obs perf guard enforces
  <5%).

Determinism contract: recorded events carry only sim-clock timestamps and
their canonical JSON lines feed the paranoid sanitizer's hash (when
``Simulator(paranoid=True)``), so same-seed replays must produce
byte-identical traces — ``python -m repro.obs smoke`` is the CI gate.
The recorder's own digest hashes exactly the lines it exports, and each
line is encoded once: the digest is folded at export or digest time.
"""

import gzip
import hashlib
import json

from repro.obs.events import TraceEvent, _plain

#: Field keys excluded from the *canonical* (tie-insensitive) trace form:
#: identity labels whose assignment rides scheduling order.  Two runs that
#: differ only in same-timestamp tie order hand out ``req`` ids in a
#: different order, and interchangeable concurrent actors (e.g. the two
#: reader processes of one noise injector) swap which ``pid`` drew which
#: offset — pure relabelings.  A *behavioural* difference still diverges
#: through event times, offsets, topics, and per-stream draw counts.
VOLATILE_FIELDS = frozenset({"req", "pid"})

#: The encoder behind :func:`canonical_line`, built once (same bytes as a
#: per-call ``json.dumps(..., sort_keys=True, separators=(",", ":"))``).
_encode_sorted = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                  default=_plain).encode

#: Events encoded per write (and per digest update) by the export: big
#: enough to amortize the call overhead, small enough to bound memory.
_BATCH = 4096


def canonical_line(event, volatile=VOLATILE_FIELDS):
    """Order-insensitive canonical form of one trace event.

    Drops the timestamp (it becomes the group key) and the volatile
    identity counters, and sorts the remaining field keys — so two events
    describing the same occurrence serialize identically regardless of
    the same-timestamp order they were emitted in.  This is the bus-side
    half of the tie-order race detector (``repro.analysis.races``).
    """
    fields = {k: v for k, v in event.fields.items() if k not in volatile}
    return event.topic + "|" + _encode_sorted(fields)


def _encode_lines(events):
    """UTF-8 JSONL of ``events``: one newline-terminated line each."""
    lines = [ev.to_json() for ev in events]
    lines.append("")
    return "\n".join(lines).encode()

# -- session defaults (what `--trace` / `--paranoid` install) ----------------
_defaults = {"recorder": None, "paranoid": False}


def install_tracing(recorder=None, paranoid=False):
    """Install session defaults picked up by every new ``Simulator``.

    Used by the experiment CLI's ``--trace``/``--paranoid`` flags: the
    experiments build their simulators internally, so the recorder must be
    ambient.  Always pair with :func:`reset_tracing`.
    """
    _defaults["recorder"] = recorder
    _defaults["paranoid"] = paranoid
    return recorder


def reset_tracing():
    _defaults["recorder"] = None
    _defaults["paranoid"] = False


def default_recorder():
    return _defaults["recorder"]


def default_paranoid():
    return _defaults["paranoid"]


class tracing:
    """Context manager: ``with tracing(TraceRecorder()) as rec: ...``."""

    def __init__(self, recorder, paranoid=False):
        self.recorder = recorder
        self.paranoid = paranoid

    def __enter__(self):
        install_tracing(self.recorder, paranoid=self.paranoid)
        return self.recorder

    def __exit__(self, *exc):
        reset_tracing()
        return False


class NullRecorder:
    """The zero-overhead default: emit sites check ``active`` and move on."""

    __slots__ = ()
    active = False

    def record(self, event):  # pragma: no cover - never called when inactive
        pass


class TraceRecorder:
    """Accumulates typed events and a hash of their canonical JSONL.

    The digest is the blake2b of exactly the bytes :meth:`write_jsonl`
    exports, and each event is encoded once: ``record`` only keeps the
    event, and :meth:`trace_digest` / :meth:`write_jsonl` fold the events
    past a watermark into the hash from the lines they encode.
    ``keep_events`` can be disabled for very long runs where only the
    digest (determinism checking) matters; with nothing to replay, that
    recorder hashes each event as it is recorded.  ``validate=True`` is the
    paranoid debug mode: every recorded event is checked against its
    topic's declared schema (:mod:`repro.obs.schema`) and the first
    mismatch raises :class:`~repro.obs.schema.SchemaViolation` — the
    dynamic twin of the static event-flow lint pass (DET011-DET013).
    """

    active = True

    def __init__(self, keep_events=True, validate=False):
        self.events = [] if keep_events else None
        self.count = 0
        self.validate = validate
        self._hash = hashlib.blake2b(digest_size=16)
        #: How many of ``events`` are already folded into ``_hash``.
        self._hashed = 0

    def record(self, event):
        if self.validate:
            # Imported lazily: the non-validating hot path never pays it.
            from repro.obs.schema import validate_event
            validate_event(event)
        self.count += 1
        if self.events is not None:
            self.events.append(event)
        else:
            self._hash.update(event.to_json().encode() + b"\n")

    def trace_digest(self):
        """Hash of every recorded event so far (sim-clock only, so two
        same-seed runs must agree)."""
        if self.events is not None:
            self._encode()
        return self._hash.hexdigest()

    def _encode(self, sink=None):
        """Encode kept events in batches, each line once.

        Batches past the hash watermark are folded into the digest; with a
        ``sink`` (an export's ``write``) every batch is handed to it too,
        so an export re-encodes only what an earlier digest already hashed.
        """
        events, hashed = self.events, self._hashed
        start = 0 if sink is not None else hashed
        while start < len(events):
            # Batches end at the watermark, so none straddles it.
            limit = hashed if start < hashed else len(events)
            stop = min(start + _BATCH, limit)
            data = _encode_lines(events[start:stop])
            if sink is not None:
                sink(data)
            if start >= hashed:
                self._hash.update(data)
                self._hashed = stop
            start = stop

    def canonical_digest(self, volatile=VOLATILE_FIELDS):
        """Tie-insensitive digest: events grouped by timestamp, sorted
        within each group, volatile identity counters dropped.

        Two same-seed runs that differ *only* in how same-timestamp ties
        were broken produce the same canonical digest; a mismatch means
        the tie-break changed observable behaviour (a tie-order race —
        see ``python -m repro.analysis races``).
        """
        if self.events is None:
            raise RuntimeError("recorder was built with keep_events=False")
        digest = hashlib.blake2b(digest_size=16)

        def fold(group, time):
            digest.update(f"t={time!r}\n".encode())
            for line in sorted(group):
                digest.update(line.encode())
                digest.update(b"\n")

        group, group_time = [], None
        for ev in self.events:
            # Exact float equality is the grouping criterion by
            # construction: ties share the heap's timestamp bit-for-bit.
            if group and ev.time != group_time:  # repro: allow[DET004]
                fold(group, group_time)
                group = []
            group.append(canonical_line(ev, volatile))
            group_time = ev.time
        if group:
            fold(group, group_time)
        return digest.hexdigest()

    # -- consumption ------------------------------------------------------
    def by_topic(self, topic):
        if self.events is None:
            raise RuntimeError("recorder was built with keep_events=False")
        return [ev for ev in self.events if ev.topic == topic]

    def topic_counts(self):
        counts = {}
        for ev in self.events or ():
            counts[ev.topic] = counts.get(ev.topic, 0) + 1
        return counts

    def write_jsonl(self, path):
        """Export the trace as one canonical JSON object per line.

        A ``.gz`` path writes gzip-compressed JSONL (the faults-forensics
        perfbench trace compresses 7.5x, 21.4 MB to 2.85 MB; level 9
        would give 7.6x, 2.82 MB);
        ``read_jsonl``/``iter_jsonl`` reopen it transparently.  The
        archive embeds no wall-clock (``mtime=0``), so two same-seed
        exports stay byte-identical.  The exported lines are the hashed
        lines: events not yet in the digest are folded in on the way.
        """
        if self.events is None:
            raise RuntimeError("recorder was built with keep_events=False")
        with open_trace(path, "wb") as fh:
            self._encode(fh.write)
        return len(self.events)


class TraceFormatError(Exception):
    """A JSONL trace file whose lines cannot be parsed back into events
    (truncated export, wrong file, hand-edited line)."""


def open_trace(path, mode="r"):
    """Open a trace path with ``open(path, mode)``, gzipped for ``.gz``.

    A ``.gz`` path reads as text and writes as bytes (``"wb"``, what
    :meth:`TraceRecorder.write_jsonl` passes).  Writes pin the gzip
    header's mtime to 0 and omit the embedded filename, so the archive
    bytes are a pure function of the trace content and of how the writes
    are chunked — the byte-identity determinism gates (``cmp`` on two
    same-seed exports) hold for ``.gz`` too, whatever the path.  Gzip runs
    at level 6, zlib's default: 1% larger than level 9 in about half the
    deflate time (DESIGN.md, "Trace plane").
    """
    if str(path).endswith(".gz"):
        if "r" in mode:
            return gzip.open(path, "rt")
        raw = open(path, "wb")
        binary = gzip.GzipFile(filename="", mode="wb", compresslevel=6,
                               mtime=0, fileobj=raw)
        # GzipFile only closes files it opened itself; hand it ours so
        # close() flushes the buffered writer too.
        binary.myfileobj = raw
        return binary
    return open(path, mode)


def iter_jsonl(path):
    """Stream a JSONL trace as :class:`TraceEvent` objects, one per line.

    The generator twin of :func:`read_jsonl` for megasweep-scale traces:
    nothing is held beyond the current line.  Same error contract —
    :class:`TraceFormatError` names ``path:lineno`` on malformed content,
    ``OSError`` propagates when the file cannot be opened, and blank
    lines are skipped.  ``.gz`` paths are decompressed transparently.
    """
    with open_trace(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield TraceEvent.from_dict(json.loads(line))
            except (ValueError, KeyError, TypeError) as exc:
                raise TraceFormatError(
                    f"{path}:{lineno}: not a trace event line "
                    f"({exc})") from exc


def read_jsonl(path):
    """Load a whole JSONL trace into a list (see :func:`iter_jsonl`)."""
    return list(iter_jsonl(path))


class TraceBus:
    """Per-simulator event bus: control subscriptions + trace recording."""

    __slots__ = ("sim", "_subs", "recorder")

    def __init__(self, sim, recorder=None):
        self.sim = sim
        self._subs = {}
        if recorder is None:
            recorder = default_recorder() or _NULL
        self.recorder = recorder

    @property
    def recording(self):
        return self.recorder.active

    # -- control plane ----------------------------------------------------
    def subscribe(self, topic, fn, source=None):
        """Run ``fn(*args)`` on every ``emit(topic, source, *args)``.

        Subscriptions are source-scoped: a consumer observing one
        scheduler never pays for (or hears) another scheduler's events.
        """
        self._subs.setdefault(topic, {}).setdefault(source, []).append(fn)
        return fn

    def unsubscribe(self, topic, fn, source=None):
        subs = self._subs.get(topic, {}).get(source)
        if subs and fn in subs:
            subs.remove(fn)

    def channel(self, topic, source=None):
        """The live subscriber list for ``(topic, source)``.

        Emit-site hoisting: the returned list is the very object
        ``subscribe``/``unsubscribe`` mutate in place, so a hot emitter
        may fetch it once and iterate it directly — skipping the two
        per-emission dict lookups — while still seeing consumers that
        come and go later.
        """
        return self._subs.setdefault(topic, {}).setdefault(source, [])

    def emit(self, topic, source, *args):
        """Synchronously deliver to the (topic, source) subscribers.

        The subscription table is nested (topic -> source -> [fns]) rather
        than keyed by ``(topic, source)`` tuples: emit sits on the per-IO
        hot path, and two small-dict lookups beat allocating and hashing a
        fresh tuple per emission — unsubscribed topics bail on the first.
        """
        by_source = self._subs.get(topic)
        if by_source is None:
            return
        subs = by_source.get(source)
        if subs:
            for fn in subs:
                fn(*args)

    # -- trace plane -------------------------------------------------------
    def record(self, topic, fields):
        """Materialize one typed event (call only when ``recording``)."""
        event = TraceEvent(self.sim.now, topic, fields)
        self.recorder.record(event)
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.observe_trace(event.to_json())


_NULL = NullRecorder()
