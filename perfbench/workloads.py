"""The benchmark's three workloads, built on the repo's cluster builders.

A workload is a fixed list of *cells*.  A cell is one strategy line on a
fresh simulator: build a cluster, attach its noise or fault plan, then run
closed-loop YCSB clients until every user request has finished.  Closed
loop: each client issues its next user request only after the previous
one completed plus a think time, so ``n_clients`` is the concurrency.

Every input comes from the ``--seed`` argument (the simulator's named RNG
streams); cluster sizes, request counts, deadlines and fault plans are
constants of the workload, so a cell's simulated results are a pure
function of the seed.

Each family runs its figure's traffic: the figure's cluster, client count
and think time, with fewer user requests per client so that a repeat takes
a few host seconds.  The one exception is the Figure 7 cells (see CACHE).

Deadlines and hedge delays are fixed per family instead of being derived
from a short Base run's p95 the way ``repro.experiments`` does it: in a
run this short the Base p95 swings with the seed's noise schedule, and the
MittOS line would inherit that swing.  Each constant is the experiments'
rule applied to a long run at the figure's own traffic and rounded (the
measurements are in README.md), §7.5's 0.3 ms for the SSD cells, whose
Base p95 is noise-bound at any length we can afford, and the disk family's
20 ms for the fault cells, which run the same node stack.
"""

from repro._units import MS, SEC
from repro.cluster import Network
from repro.devices import SsdGeometry
from repro.experiments.common import (apply_ec2_noise, build_cache_cluster,
                                      build_disk_cluster, build_ssd_cluster,
                                      make_strategy)
from repro.faults import (CrashWindow, DeviceStorm, FailSlow, FaultPlane,
                          FaultSpec, MessageLoss, ReadErrors)
from repro.metrics.latency import LatencyRecorder
from repro.obs.events import IO_COMPLETE, RPC_SEND
from repro.sim import Simulator
from repro.workloads import Ec2NoiseModel, UniformKeys
from repro.workloads.ycsb import YcsbClient

#: Outcome tags YcsbClient counts for a user request that failed.
ERROR_TAGS = ("eio", "ebusy_leak")


class OpRecorder(LatencyRecorder):
    """A LatencyRecorder that also keeps each user request's outcome.

    ``YcsbClient`` calls ``add(latency)`` and then, with no yield in
    between, ``count(tag)`` for each failed sub-get of the same request,
    so a tag always belongs to the most recently added sample.
    """

    def __init__(self, name=""):
        super().__init__(name)
        self.outcomes = []

    def add(self, latency_us):
        super().add(latency_us)
        self.outcomes.append("ok")

    def count(self, tag, n=1):
        super().count(tag, n)
        if tag in ERROR_TAGS:
            self.outcomes[-1] = tag


class CountingStrategy:
    """Counts the gets clients issue; everything else is the strategy's."""

    def __init__(self, strategy):
        self.strategy = strategy
        self.gets = 0

    def get(self, key):
        self.gets += 1
        return self.strategy.get(key)


class Cell:
    """One built (not yet run) cell: a simulator with clients to launch."""

    def __init__(self, name, family, line, sf, sim, env, strategy,
                 n_clients, n_ops, think_us, limit_us, plane=None,
                 stagger_us=0.0):
        self.name = name
        self.family = family
        self.line = line
        self.sf = sf
        self.sim = sim
        self.env = env
        self.strategy = strategy
        self.plane = plane
        self.n_clients = n_clients
        self.n_ops = n_ops
        self.think_us = think_us
        self.limit_us = limit_us
        self.stagger_us = stagger_us
        self.recorder = OpRecorder(name)
        self.client_gets = 0

    @property
    def attempted(self):
        return self.n_clients * self.n_ops

    def run(self):
        """Run every client to completion (or to the cell's time limit).

        Mirrors ``repro.experiments.common.run_clients`` (same key
        streams), with the recorder and get counter swapped in.
        """
        sim = self.sim
        counting = CountingStrategy(self.strategy)
        n_keys = self.env.keyspace.n_keys
        procs = [
            YcsbClient(sim, counting,
                       UniformKeys(n_keys, sim.rng(f"keys/{i}")),
                       self.recorder, self.n_ops, self.sf, self.think_us,
                       start_delay_us=i * self.stagger_us).run()
            for i in range(self.n_clients)]
        sim.run_until(sim.all_of(procs), limit=self.limit_us)
        self.client_gets = counting.gets
        return self.recorder


# -- disk-fanout: the Figure 5/6 family ---------------------------------------

#: Figure 6's traffic (20 clients, 6 ms think) at its scale factor 2.  The
#: deadline is Figure 6's rule, the SF 1 Base p95, at this traffic: 19.3 to
#: 23.8 ms over seeds 1-5 at 1000 user requests per client.
DISK = dict(n_nodes=20, n_clients=20, n_ops=300, sf=2, think_us=6 * MS,
            deadline_us=20 * MS, horizon_us=120 * SEC)


def disk_cell(seed, line, recorder=None):
    p = DISK
    sim = Simulator(seed=seed, recorder=recorder)
    env = build_disk_cluster(sim, p["n_nodes"])
    apply_ec2_noise(env, Ec2NoiseModel("disk"), p["horizon_us"])
    strategy = make_strategy(
        line, env.cluster,
        deadline_us=None if line == "base" else p["deadline_us"])
    return Cell(f"disk/{line}/sf{p['sf']}", "disk", line, p["sf"], sim, env,
                strategy, p["n_clients"], p["n_ops"], p["think_us"],
                p["horizon_us"])


# -- fast-media: Figure 7 (page cache + MittCache) and Figure 8 (SSD) ---------

#: Figure 7's cluster, key count, think time, swap-out and scale factor 10,
#: with its hedge delay (the SF 1 Base p95 at its 20 clients: 0.72 ms) and
#: MittCache deadline, but 10 clients instead of 20.  At 20 clients the
#: swapped-out pages are read back so soon that only 4.3 to 7.0% of the
#: MittOS line's requests touch one (seeds 1-8), so the p95 of both lines
#: sits on that cliff: 0.75 ms on some seeds and 1.3 ms on others, and the
#: p95 gain jumps between 1.01 and 1.85.  At 10 clients 6.3 to 10.3% do
#: (seeds 1-10), and the p95 of both lines lies above the cliff on every
#: seed, with a gain of 1.04 to 1.06.  The layer shares of the profile and
#: the kernel events per request are the same at both client counts.
CACHE = dict(n_nodes=20, n_keys=3_000, n_clients=10, n_ops=150, sf=10,
             think_us=2 * MS, hedge_us=0.72 * MS, deadline_us=0.2 * MS,
             evict_period_us=200 * MS, horizon_us=60 * SEC)

SSD = dict(n_nodes=6, n_keys=6_000, n_clients=6, n_ops=400, sf=2,
           think_us=0.2 * MS, hedge_us=0.3 * MS, deadline_us=0.3 * MS,
           erase_rate_per_s=60, horizon_us=60 * SEC)


def cache_cell(seed, line, recorder=None):
    """Figure 7: data resident in the page cache, periodic swap-out."""
    p = CACHE
    sim = Simulator(seed=seed, recorder=recorder)
    env = build_cache_cluster(sim, p["n_nodes"], n_keys=p["n_keys"])
    rng = sim.rng("ec2")
    for injector in env.injectors:
        injector.periodic_cache_eviction(fraction=rng.uniform(0.005, 0.04),
                                         period_us=p["evict_period_us"],
                                         until_us=p["horizon_us"])
    deadline = p["hedge_us"] if line == "hedged" else p["deadline_us"]
    strategy = make_strategy(line, env.cluster, deadline_us=deadline)
    return Cell(f"cache/{line}/sf{p['sf']}", "cache", line, p["sf"], sim,
                env, strategy, p["n_clients"], p["n_ops"], p["think_us"],
                p["horizon_us"])


def ssd_cell(seed, line, recorder=None):
    """Figure 8: six OpenChannel SSD partitions sharing one 8-thread CPU."""
    p = SSD
    sim = Simulator(seed=seed, recorder=recorder)
    geometry = SsdGeometry(n_channels=2, chips_per_channel=8,
                           blocks_per_chip=32)
    env = build_ssd_cluster(
        sim, p["n_nodes"], n_keys=p["n_keys"], geometry=geometry,
        shared_cpu_slots=8, handler_cpu_us=150.0,
        network=Network(sim, hop_us=30.0, jitter_us=3.0))
    rng = sim.rng("ec2")
    schedules = Ec2NoiseModel("ssd").schedules(rng, p["n_nodes"],
                                               p["horizon_us"])
    for injector, episodes in zip(env.injectors, schedules):
        injector.run_schedule([tuple(ep) for ep in episodes], style="ssd")
        injector.ssd_erase_noise(rate_per_sec=p["erase_rate_per_s"],
                                 until_us=p["horizon_us"])
    deadline = p["hedge_us"] if line == "hedged" else p["deadline_us"]
    strategy = make_strategy(line, env.cluster, deadline_us=deadline)
    return Cell(f"ssd/{line}/sf{p['sf']}", "ssd", line, p["sf"], sim, env,
                strategy, p["n_clients"], p["n_ops"], p["think_us"],
                p["horizon_us"])


# -- faults-forensics: the faultsweep family ----------------------------------

#: ``fault_span_us`` places the fault windows; it is shorter than the time
#: the clients need, so every window falls inside the run.  ``limit_us``
#: only bounds the run and is never reached.
FAULTS = dict(n_nodes=9, n_clients=12, n_ops=300, think_us=4 * MS,
              deadline_us=20 * MS, fault_span_us=3.2 * SEC,
              limit_us=60 * SEC, stagger_us=17.0, qdepth_limit=2)


def fault_spec(span_us):
    """faultsweep's plan at 5% loss: node 1 crash-stops for the second
    quarter of the span, node 2 fails slow and node 3 storms in the third,
    node 4 returns latent read errors throughout."""
    return FaultSpec(
        message_loss=(MessageLoss(rate=0.05),),
        crashes=(CrashWindow(node=1, start_us=0.25 * span_us,
                             duration_us=0.25 * span_us),),
        fail_slow=(FailSlow(node=2, start_us=0.5 * span_us,
                            duration_us=0.25 * span_us,
                            cpu_factor=4.0, device_factor=3.0),),
        device_storms=(DeviceStorm(node=3, start_us=0.5 * span_us,
                                   duration_us=0.25 * span_us,
                                   factor=2.0, spike_prob=0.05),),
        read_errors=(ReadErrors(rate=0.01, node=4),),
        rpc_timeout_us=80 * MS,
        op_budget_us=2 * SEC,
        max_attempts=8,
    )


def fault_cell(seed, line, recorder=None):
    p = FAULTS
    sim = Simulator(seed=seed, recorder=recorder)
    plane = FaultPlane(sim, fault_spec(p["fault_span_us"]))
    env = build_disk_cluster(sim, p["n_nodes"],
                             fault_injector=plane.decision_injector)
    plane.arm(env.cluster)
    strategy = make_strategy(line, env.cluster, deadline_us=p["deadline_us"])
    if line == "adaptive":
        strategy.guard_nodes(qdepth_limit=p["qdepth_limit"])
        strategy.arm(2 * p["fault_span_us"])
    return Cell(f"faults/{line}", "faults", line, 1, sim, env, strategy,
                p["n_clients"], p["n_ops"], p["think_us"], p["limit_us"],
                plane=plane, stagger_us=p["stagger_us"])


class Workload:
    """A named list of cell builders, run one after another.

    Why each workload exists is recorded in README.md and BENCHMARK.json.
    """

    def __init__(self, name, cells, headline, paper_claim=True,
                 traced=False):
        self.name = name
        #: ((builder, line), ...) in run order.
        self.cells = cells
        #: The family whose MittOS and Hedged lines give the ``sim_*``
        #: metrics.  Pooling families would put the median between two
        #: latency scales, where it jumps from seed to seed.
        self.headline = headline
        #: Check the paper's claim, MittOS p95 below Hedged p95, in every
        #: family.  Under the fault plan MittOS trails Hedged at p95.
        self.paper_claim = paper_claim
        #: Run through the trace -> gz export -> metrics -> tails path.
        self.traced = traced


WORKLOADS = {
    "disk-fanout": Workload(
        "disk-fanout",
        tuple((disk_cell, line) for line in ("base", "hedged", "mittos")),
        headline="disk"),
    "fast-media": Workload(
        "fast-media",
        tuple((cache_cell, line) for line in ("hedged", "mittos"))
        + tuple((ssd_cell, line) for line in ("hedged", "mittos")),
        headline="cache"),
    "faults-forensics": Workload(
        "faults-forensics",
        tuple((fault_cell, line)
              for line in ("hedged", "mittos", "adaptive")),
        headline="faults", paper_claim=False, traced=True),
}


# -- per-layer counters ------------------------------------------------------

def cell_counters(cell):
    """The simulated per-layer counters of one finished cell.

    Every value is read after the run from the stats the layers already
    keep (and the simulator's count of scheduled heap entries), so
    gathering them adds no work inside the simulation.
    """
    nodes = cell.env.nodes
    strategy = cell.strategy
    oses = [node.os for node in nodes]
    caches = [os_.cache for os_ in oses if os_.cache is not None]
    predictors = [os_.predictor for os_ in oses if os_.predictor is not None]
    scheds = [os_.scheduler.stats for os_ in oses]
    net = cell.env.cluster.network.stats
    out = {
        "sim.events": cell.sim._seq,
        "cluster.strategies.gets": cell.client_gets,
        "cluster.strategies.node_gets": sum(n.handled for n in nodes),
        "cluster.strategies.eio_failovers": strategy.eio_failovers,
        "cluster.rpc_sent": net.sent,
        "cluster.rpc_dropped": net.dropped,
        "engines.gets": sum(n.engine.gets for n in nodes),
        "kernel.syscall.reads": sum(o.stats.reads for o in oses),
        "kernel.syscall.ebusy": sum(o.stats.ebusy_returned for o in oses),
        "kernel.cache.hits": sum(c.hits for c in caches),
        "kernel.cache.misses": sum(c.misses for c in caches),
        "kernel.scheduler.submitted": sum(s.submitted for s in scheds),
        "kernel.scheduler.dispatched": sum(s.dispatched for s in scheds),
        "kernel.scheduler.cancelled": sum(s.cancelled for s in scheds),
        "mittos.admitted": sum(p.admitted for p in predictors),
        "mittos.rejected": sum(p.rejected for p in predictors),
        "devices.ios": sum(o.device.completed for o in oses),
        "slo_control.windows": 0,
        "slo_control.sheds": 0,
    }
    controller = getattr(strategy, "controller", None)
    if controller is not None and hasattr(controller, "windows"):
        out["slo_control.windows"] = controller.windows
        out["slo_control.sheds"] = sum(g.shed for g in controller.guards)
    if cell.plane is not None:
        for key, value in cell.plane.counters().items():
            out[f"faults.{key}"] = value
    return out


class BusProbe:
    """Traced-run-only counters fed by the bus's public subscriptions.

    Device busy time (sum of per-IO service time, simulated) and the
    client->node RPCs (attempts) are not kept by any layer, so the traced
    run subscribes to ``io.complete`` and ``rpc.send`` for them.
    """

    def __init__(self, cell):
        self.busy_us = 0.0
        self.attempts = 0
        self._client = Network.CLIENT
        bus = cell.sim.bus
        for node in cell.env.nodes:
            bus.subscribe(IO_COMPLETE, self._on_complete,
                          source=node.os.scheduler)
        bus.subscribe(RPC_SEND, self._on_send, source=cell.env.cluster.network)

    def _on_complete(self, req):
        self.busy_us += req.complete_time - req.service_start

    def _on_send(self, src, dst):
        if src == self._client:
            self.attempts += 1

    def counters(self):
        return {"devices.busy_sim_s": self.busy_us / SEC,
                "cluster.strategies.attempts": self.attempts}
