"""Figure-regeneration benchmark: end to end and per layer, one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload disk-fanout --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time (the median of
several fresh interpreters, each importing the program and building the
workload's first cell), then whole-workload repeats for ``--seconds`` host
seconds, reporting the median repeat.  Host times are scaled to the
reference speed that ``calibrate.py`` measures between them.
``--trace 1`` runs the workload once plain and once under cProfile and
reports self time per layer plus the layers' own counters.  Either way the
simulated results are checked, and the last line of standard output is one
JSON object.  See README.md.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import calibrate  # noqa: E402  (this directory; imports no program code)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REPRO = os.path.join(SRC, "repro")
#: Trace exports of the traced workload; removed before the run ends.
OUT = os.path.join(ROOT, ".perfbench-out")

#: Fresh interpreters timed for ``setup_s``.
SETUP_SAMPLES = 9
#: Reference-kernel samples taken before each set-up probe, each cell and
#: the post-processing.
REF_SAMPLES = 2
#: Fewest measured repeats: two are needed to compare results across them.
MIN_REPEATS = 2
#: Share of the profiled wall time the buckets must account for.
MIN_ACCOUNTED = 0.9
#: Largest share of the profiled self time the catch-all buckets may hold;
#: more means a module is missing from ``layers.MODULE_LAYERS``.
MAX_CATCH_ALL = 0.1
#: ``FaultPlane.counters()``, reported as ``faults.<name>``.
FAULT_COUNTERS = ("dropped_messages", "injected_read_errors",
                  "injected_spikes", "injected_fn", "injected_fp")

END_TO_END = (  # (name, unit, what it is)
    ("setup_s", "s", "host, reference speed: imports, disk profile, "
                     "first cell build"),
    ("wall_s", "s", "host, reference speed: every cell of the workload, "
                    "median repeat"),
    ("ops_per_s", "1/s", "host, reference speed: simulated user requests "
                         "per second"),
    ("peak_rss_mb", "MB", "host: peak resident set of the process"),
    ("sim_p50_ms", "ms", "simulated: MittOS line median latency"),
    ("sim_p99_ms", "ms", "simulated: MittOS line p99 latency"),
    ("sim_p95_gain_x", "x", "simulated: Hedged p95 / MittOS p95"),
    ("op_ok_ratio", "ratio", "simulated: user requests that returned data"),
)


def import_program():
    """Put the checkout's ``src`` first on the path and import the model."""
    if not os.path.isfile(os.path.join(REPRO, "__init__.py")):
        sys.stderr.write(f"perfbench: no program source at {REPRO}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import repro
    if os.path.realpath(os.path.dirname(repro.__file__)) != \
            os.path.realpath(REPRO):
        sys.stderr.write("perfbench: imported repro from "
                         f"{repro.__file__}, not {REPRO}\n")
        sys.exit(2)
    import workloads
    return workloads


# -- one repeat of a workload --------------------------------------------------

class CellRecord:
    """What one finished cell leaves behind (the simulator is dropped)."""

    def __init__(self, cell, counters):
        self.name = cell.name
        self.family = cell.family
        self.line = cell.line
        self.attempted = cell.attempted
        self.samples = cell.recorder.samples
        self.outcomes = cell.recorder.outcomes
        self.counters = counters


class Repeat:
    """Host wall time, per-cell records and checks of one workload run.

    ``sim_s`` is the host time spent inside the cells' simulation loops
    only: no cluster builds and no post-processing.
    """

    def __init__(self, workload, wall_s, sim_s, cells, obs, checks):
        self.workload = workload
        self.wall_s = wall_s
        self.sim_s = sim_s
        self.cells = cells
        self.obs = obs
        self.checks = checks

    def digest(self):
        """sha256 over every user request's latency and outcome."""
        h = hashlib.sha256()
        for rec in self.cells:
            for latency, outcome in zip(rec.samples, rec.outcomes):
                h.update(f"{rec.name}|{latency.hex()}|{outcome}\n".encode())
        return h.hexdigest()

    def counters(self):
        total = {}
        for rec in self.cells:
            for key, value in rec.counters.items():
                total[key] = total.get(key, 0) + value
        total.update(self.obs)
        return total

    def line_samples(self, family, line):
        out = []
        for rec in self.cells:
            if rec.family == family and rec.line == line:
                out.extend(rec.samples)
        return out

    @property
    def attempted(self):
        return sum(rec.attempted for rec in self.cells)

    def errored(self):
        return sum(o != "ok" for rec in self.cells for o in rec.outcomes)

    def completed(self):
        return sum(o == "ok" for rec in self.cells for o in rec.outcomes)

    def sim_metrics(self):
        from repro._units import MS
        from repro.metrics.latency import percentile
        mitt = self.line_samples(self.workload.headline, "mittos")
        hedged = self.line_samples(self.workload.headline, "hedged")
        return {
            "sim_p50_ms": percentile(mitt, 50) / MS,
            "sim_p99_ms": percentile(mitt, 99) / MS,
            "sim_p95_gain_x": percentile(hedged, 95) / percentile(mitt, 95),
            "op_ok_ratio": self.completed() / self.attempted,
            "op_error_rate": self.errored() / self.attempted,
            "mittos_samples": len(mitt),
        }


def run_repeat(wl, workload, seed, probes=False, refs=None):
    """Build and simulate every cell of ``workload`` once, in order.

    With ``refs``, reference-kernel samples are taken before each cell and
    before the post-processing, and appended to it; the time they take is
    not part of the repeat's.
    """
    t0 = time.perf_counter()
    paused = 0.0

    def sample_refs():
        nonlocal paused
        if refs is not None:
            t_ref = time.perf_counter()
            refs.extend(calibrate.sample() for _ in range(REF_SAMPLES))
            paused += time.perf_counter() - t_ref

    recorder = None
    if workload.traced:
        from repro.obs.bus import TraceRecorder
        recorder = TraceRecorder()
    cells = []
    sim_s = 0.0
    for build, line in workload.cells:
        sample_refs()
        cell = build(seed, line, recorder=recorder)
        probe = wl.BusProbe(cell) if probes else None
        t_sim = time.perf_counter()
        cell.run()
        sim_s += time.perf_counter() - t_sim
        counters = wl.cell_counters(cell)
        if probe is not None:
            counters.update(probe.counters())
        cells.append(CellRecord(cell, counters))
    obs, checks = {}, []
    if recorder is not None:
        sample_refs()
        obs, checks = post_process(recorder, workload.name, seed)
    return Repeat(workload, time.perf_counter() - t0 - paused, sim_s, cells,
                  obs, checks)


def post_process(recorder, name, seed):
    """The ``--trace --metrics --tails`` user path over one recorded run:
    gz export, metrics-registry fold and tail forensics."""
    from repro.obs.forensics import TailForensics
    from repro.obs.registry import MetricsRegistry
    from repro.obs.spans import SPAN_SUM_TOLERANCE_US
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{name}-trace.jsonl.gz")
    n_events = recorder.write_jsonl(path)
    trace_bytes = os.path.getsize(path)
    os.remove(path)
    # The CLI writes the snapshot and prints the report; building both
    # strings is the work, so they are made and dropped here.
    MetricsRegistry().consume(recorder.events).to_json()
    report = TailForensics.from_events(recorder.events).report(
        label=f"{name} seed={seed}")
    report.render()
    worst = max((abs(sum(b.charged.values()) - b.total)
                 for b in report.flagged), default=0.0)
    checks = [
        ("forensics: tail requests flagged", bool(report.flagged),
         f"{len(report.flagged)} of {report.spans} op spans above "
         f"{report.threshold_us:.0f} us"),
        ("forensics: charged us == end-to-end latency per request",
         worst <= SPAN_SUM_TOLERANCE_US, f"worst gap {worst:.3g} us"),
    ]
    obs = {"obs.events_recorded": n_events, "obs.trace_bytes": trace_bytes}
    return obs, checks


# -- checks ----------------------------------------------------------------------

def output_checks(rep, workload):
    """Request accounting per cell and the workload's paper claim."""
    from repro.metrics.latency import percentile
    checks = []
    for rec in rep.cells:
        done = sum(o == "ok" for o in rec.outcomes)
        err = len(rec.outcomes) - done
        checks.append((f"{rec.name}: completed + errored == attempted",
                       done + err == rec.attempted,
                       f"{done} + {err} vs {rec.attempted}"))
    if workload.paper_claim:
        for family in sorted({rec.family for rec in rep.cells}):
            p95 = {rec.line: percentile(rec.samples, 95)
                   for rec in rep.cells if rec.family == family}
            checks.append((f"{family}: MittOS p95 < Hedged p95",
                           p95["mittos"] < p95["hedged"],
                           f"{p95['mittos']:.1f} vs {p95['hedged']:.1f} us"))
    return checks + rep.checks


def agreement_check(repeats):
    """Simulated results must be bit-identical across repeats.

    Counters are compared on the keys every repeat has: the traced run's
    plain repeat carries no bus probes.
    """
    keys = set.intersection(*(set(rep.counters()) for rep in repeats))

    def result(rep):
        counters = rep.counters()
        return (rep.digest(), rep.sim_metrics(),
                {key: counters[key] for key in keys})

    ref = result(repeats[0])
    bad = [i for i, rep in enumerate(repeats[1:], 1) if result(rep) != ref]
    return ("determinism: simulated results identical across "
            f"{len(repeats)} repeats", not bad,
            f"repeats {bad} differ" if bad else
            f"digest {ref[0][:16]}, {len(keys)} counters")


# -- modes -------------------------------------------------------------------------

def measure_setup(args, refs):
    """Median set-up time over fresh interpreters (imports included).

    Reference-kernel samples taken before each probe go to ``refs``.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        refs.extend(calibrate.sample() for _ in range(REF_SAMPLES))
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def setup_probe(args, wl):
    """Child side of ``measure_setup``: time up to the first sim event."""
    from repro.obs.bus import TraceRecorder
    workload = wl.WORKLOADS[args.workload]
    build, line = workload.cells[0]
    build(args.seed, line,
          recorder=TraceRecorder() if workload.traced else None)
    print(repr(time.perf_counter() - _T0))
    return 0


def run_end_to_end(args, wl, workload):
    """Host times are scaled by ``calibrate.NOMINAL_S / median kernel
    time``, each phase by the reference samples taken during it."""
    setup_refs = []
    setup_raw, setup_samples = measure_setup(args, setup_refs)
    setup_speed = calibrate.NOMINAL_S / statistics.median(setup_refs)
    repeats, refs = [], []
    start = time.perf_counter()
    while True:
        gc.collect()  # the previous repeat's garbage is not this one's cost
        repeats.append(run_repeat(wl, workload, args.seed, refs=refs))
        elapsed = time.perf_counter() - start
        longest = max(r.wall_s for r in repeats)
        if len(repeats) >= MIN_REPEATS and elapsed + longest > args.seconds:
            break
    refs.extend(calibrate.sample() for _ in range(REF_SAMPLES))
    speed = calibrate.NOMINAL_S / statistics.median(refs)
    walls = [r.wall_s for r in repeats]
    wall_raw = statistics.median(walls)
    wall_s = wall_raw * speed
    rep = repeats[0]
    sim = rep.sim_metrics()
    metrics = {
        "setup_s": setup_raw * setup_speed,
        "wall_s": wall_s,
        "ops_per_s": rep.attempted / wall_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update({k: sim[k] for k in ("sim_p50_ms", "sim_p99_ms",
                                        "sim_p95_gain_x", "op_ok_ratio")})
    checks = output_checks(rep, workload) + [agreement_check(repeats)]

    print(f"perfbench {workload.name} seed={args.seed}: {len(repeats)} "
          f"repeats of {len(rep.cells)} cells, "
          f"{rep.attempted} user requests each")
    print(f"  setup samples (host s): {fmt_list(setup_samples)}; median "
          f"{setup_raw:.4f} x speed {setup_speed:.4f}")
    print(f"  repeat walls  (host s): {fmt_list(walls)}; median "
          f"{wall_raw:.4f} x speed {speed:.4f}")
    print(f"  reference kernel (host ms): median "
          f"{1e3 * statistics.median(setup_refs):.2f} over set-up, "
          f"{1e3 * statistics.median(refs):.2f} over repeats; nominal "
          f"{1e3 * calibrate.NOMINAL_S:.2f}")
    for name, unit, what in END_TO_END:
        print(f"  {name:18s} {metrics[name]:14.6f} {unit:6s} {what}")
    print(f"  {'op_error_rate':18s} {sim['op_error_rate']:14.6f} "
          f"{'ratio':6s} simulated: requests ending in EIO or leaked EBUSY")
    print(f"  {'sim_p95_gain_pct':18s} "
          f"{100.0 * (1.0 - 1.0 / sim['sim_p95_gain_x']):14.6f} "
          f"{'%':6s} simulated: MittOS p95 reduction against Hedged")
    print(f"  MittOS line samples ({workload.headline} cells): "
          f"{sim['mittos_samples']}")
    return finish(checks, rep, len(repeats), metrics,
                  {n: u for n, u, _ in END_TO_END})


def run_traced(args, wl, workload):
    import cProfile
    from layers import LAYERS, MODULES, LayerProfile
    from repro.sim.process import Process
    plain = run_repeat(wl, workload, args.seed)
    profiler = cProfile.Profile()
    gc.collect()
    t0 = time.perf_counter()
    profiler.enable()
    profiled = run_repeat(wl, workload, args.seed, probes=True)
    profiler.disable()
    wall_p = time.perf_counter() - t0
    prof = LayerProfile(profiler, REPRO, HERE)
    c = profiled.counters()
    sim = profiled.sim_metrics()

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (prof.self_s[layer], "s")
    for module in MODULES:
        metrics[f"{module}.self_s"] = (prof.module_s[module], "s")
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    metrics.update({
        "sim.events": (c["sim.events"], "count"),
        "sim.processes": (prof.calls(Process.__init__), "count"),
        "sim.events_per_s": (c["sim.events"] / plain.sim_s, "1/s"),
        "cluster.strategies.gets": (c["cluster.strategies.gets"], "count"),
        "cluster.strategies.attempts":
            (c["cluster.strategies.attempts"], "count"),
        "cluster.strategies.eio_failovers":
            (c["cluster.strategies.eio_failovers"], "count"),
        "cluster.strategies.useful_ratio":
            (ratio(c["cluster.strategies.gets"],
                   c["cluster.strategies.node_gets"]), "ratio"),
        "cluster.rpc_sent": (c["cluster.rpc_sent"], "count"),
        "cluster.rpc_dropped": (c["cluster.rpc_dropped"], "count"),
        "engines.gets": (c["engines.gets"], "count"),
        "kernel.syscall.reads": (c["kernel.syscall.reads"], "count"),
        "kernel.syscall.ebusy": (c["kernel.syscall.ebusy"], "count"),
        "kernel.syscall.ebusy_ratio":
            (ratio(c["kernel.syscall.ebusy"], c["kernel.syscall.reads"]),
             "ratio"),
        "kernel.cache.hit_ratio":
            (ratio(c["kernel.cache.hits"],
                   c["kernel.cache.hits"] + c["kernel.cache.misses"]),
             "ratio"),
        "kernel.scheduler.submitted":
            (c["kernel.scheduler.submitted"], "count"),
        "kernel.scheduler.dispatched":
            (c["kernel.scheduler.dispatched"], "count"),
        "kernel.scheduler.cancelled":
            (c["kernel.scheduler.cancelled"], "count"),
        "mittos.verdicts":
            (c["mittos.admitted"] + c["mittos.rejected"], "count"),
        "mittos.reject_ratio":
            (ratio(c["mittos.rejected"],
                   c["mittos.admitted"] + c["mittos.rejected"]), "ratio"),
        "devices.ios": (c["devices.ios"], "count"),
        "devices.busy_sim_s": (c["devices.busy_sim_s"], "s"),
        **{f"faults.{key}": (c.get(f"faults.{key}", 0), "count")
           for key in FAULT_COUNTERS},
        "slo_control.windows": (c["slo_control.windows"], "count"),
        "slo_control.sheds": (c["slo_control.sheds"], "count"),
        "obs.events_recorded": (c.get("obs.events_recorded", 0), "count"),
        "obs.trace_bytes": (c.get("obs.trace_bytes", 0), "bytes"),
        "op_error_rate": (sim["op_error_rate"], "ratio"),
        "profile_overhead_x": (wall_p / plain.wall_s, "x"),
    })

    step_s = prof.self_of(Process._step)
    generator_s = sum(prof.self_s[k] for k in (
        "cluster.strategies", "cluster", "engines", "kernel.syscall"))
    checks = output_checks(profiled, workload) + [
        agreement_check([plain, profiled]),
        ("profile: buckets account for the profiled wall time",
         prof.total_s >= MIN_ACCOUNTED * wall_p,
         f"{prof.total_s:.3f} of {wall_p:.3f} s"),
        ("profile: catch-all buckets hold at most "
         f"{MAX_CATCH_ALL:.0%} of self time",
         prof.catch_all_s() <= MAX_CATCH_ALL * prof.total_s,
         f"{prof.catch_all_s():.3f} of {prof.total_s:.3f} s"),
        ("profile: generator time charged to its own module, not "
         "Process._step",
         generator_s > step_s,
         f"strategies+cluster+engines+syscall {generator_s:.3f} s vs "
         f"Process._step {step_s:.3f} s"),
    ]

    print(f"perfbench {workload.name} seed={args.seed}: traced run, "
          f"plain {plain.wall_s:.3f} s (simulation {plain.sim_s:.3f} s), "
          f"profiled {wall_p:.3f} s (host)")
    print(f"  {'layer':22s} {'self_s':>9s} {'share':>7s}   (host seconds)")
    for layer in LAYERS:
        share = prof.self_s[layer] / prof.total_s
        print(f"  {layer:22s} {prof.self_s[layer]:9.3f} {share:7.1%}")
    for module in MODULES:
        share = prof.module_s[module] / prof.total_s
        print(f"    {module:20s} {prof.module_s[module]:9.3f} {share:7.1%}")
    print(f"  {'Process._step':22s} {step_s:9.3f} "
          f"{step_s / prof.total_s:7.1%}")
    for name, (value, unit) in metrics.items():
        if not name.endswith(".self_s"):
            print(f"  {name:34s} {value:16.6f} {unit}")
    return finish(checks, profiled, 2, {k: v for k, (v, _) in
                                        metrics.items()},
                  {k: u for k, (_, u) in metrics.items()})


def finish(checks, rep, n_repeats, values, units):
    correct = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}")
    print(f"digest {rep.digest()}")
    lost = rep.attempted - sum(len(rec.outcomes) for rec in rep.cells)
    print(json.dumps({
        "correct": correct,
        "attempted": rep.attempted * n_repeats,
        "failed": lost * n_repeats,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


def fmt_list(values):
    return " ".join(f"{v:.4f}" for v in values)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    wl = import_program()
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(wl.WORKLOADS)}")
    if args.setup_probe:
        return setup_probe(args, wl)
    workload = wl.WORKLOADS[args.workload]
    try:
        if args.trace:
            return run_traced(args, wl, workload)
        return run_end_to_end(args, wl, workload)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
