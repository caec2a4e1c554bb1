"""Group a cProfile run's self time (``tottime``) by layer.

cProfile times a generator's body as its own function each time the
generator resumes, so the strategy, node, engine and syscall code that
runs inside simulated processes is charged to its own module and not to
``Process._step``, which only keeps the time of its own lines.

Layers are the repo's modules (``src/repro/<package>/<module>.py``).  The
standard library gets named buckets.  A C builtin is charged to the layer
of the Python function that called it (cProfile keeps its self time per
caller), except the event queue, the RNG, JSON and zlib, which have
buckets of their own.  Whatever no table names lands in a catch-all
(``repro.other``, ``stdlib.other``, ``builtin.other``); the benchmark
fails a traced run whose catch-alls hold too much of the time.
"""

import os
import sysconfig

#: Layer of each module, by its path under ``src/repro``; a directory entry
#: covers every module below it.  The longest matching prefix wins.
MODULE_LAYERS = {
    "sim/": "sim",
    "cluster/strategies/": "cluster.strategies",
    "cluster/": "cluster",
    "engines/": "engines",
    "kernel/syscall.py": "kernel.syscall",
    "kernel/cache.py": "kernel.cache",
    "kernel/flashcache.py": "kernel.cache",
    "kernel/tiered.py": "kernel.cache",
    "kernel/": "kernel.scheduler",
    "mittos/": "mittos",
    "devices/": "devices",
    "faults/": "faults",
    "slo_control/": "slo_control",
    "obs/": "obs",
    "workloads/": "workloads",
    "metrics/": "metrics",
    "experiments/": "experiments",
    "": "repro.other",
}

#: Every bucket, in report order.  ``harness`` is this benchmark's own code.
LAYERS = (
    "sim", "cluster.strategies", "cluster", "engines", "kernel.syscall",
    "kernel.cache", "kernel.scheduler", "mittos", "devices", "faults",
    "slo_control", "obs", "workloads", "metrics", "experiments",
    "repro.other", "harness", "numpy", "stdlib.json", "stdlib.gzip",
    "stdlib.random", "stdlib.other", "builtin.other",
)

#: Single modules reported beside their layer: the disk path that
#: ``fast-media`` bypasses and the fast-media path ``disk-fanout`` bypasses.
MODULES = (
    "devices.disk", "devices.ssd", "kernel.cfq", "kernel.noop",
    "mittos.mittcfq", "mittos.mittssd", "mittos.mittcache",
)

#: Standard-library modules with a bucket of their own; ``heapq`` is the
#: event queue, so it is folded into ``sim``.
STDLIB_BUCKETS = {"json": "stdlib.json", "gzip": "stdlib.gzip",
                  "zlib": "stdlib.gzip", "random": "stdlib.random",
                  "heapq": "sim"}

#: Buckets that only hold what no table names.
CATCH_ALLS = ("repro.other", "stdlib.other", "builtin.other")

#: C functions with a bucket of their own, by a fragment of the name
#: cProfile gives them.
BUILTIN_BUCKETS = (("_heapq", "sim"), ("_random", "stdlib.random"),
                   ("_json", "stdlib.json"), ("zlib", "stdlib.gzip"))

_STDLIB = os.path.realpath(sysconfig.get_paths()["stdlib"]) + os.sep


def _layer_of_module(rel):
    best = ""
    for prefix in MODULE_LAYERS:
        if rel.startswith(prefix) and len(prefix) >= len(best):
            best = prefix
    return MODULE_LAYERS[best]


def classify(filename, funcname, repro_root, harness_root):
    """(bucket, module) of one profiled function; module may be None.

    A C builtin outside ``BUILTIN_BUCKETS`` gives ``(None, None)``: its
    time belongs to its callers.
    """
    if filename == "~":
        for fragment, bucket in BUILTIN_BUCKETS:
            if fragment in funcname:
                return bucket, None
        return None, None
    path = os.path.realpath(filename)
    if path.startswith(repro_root):
        rel = path[len(repro_root):].replace(os.sep, "/")
        module = rel[:-3].replace("/", ".") if rel.endswith(".py") else None
        return _layer_of_module(rel), module
    if path.startswith(harness_root):
        return "harness", None
    if f"{os.sep}numpy{os.sep}" in path:
        return "numpy", None
    if path.startswith(_STDLIB):
        top = path[len(_STDLIB):].split(os.sep)[0]
        top = top[:-3] if top.endswith(".py") else top
        return STDLIB_BUCKETS.get(top, "stdlib.other"), None
    return "stdlib.other", None


class LayerProfile:
    """Self time per bucket and per reported module from one profile."""

    def __init__(self, profiler, repro_root, harness_root):
        import pstats
        stats = pstats.Stats(profiler).stats
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.module_s = dict.fromkeys(MODULES, 0.0)
        self._rows = {}
        repro_root = os.path.realpath(repro_root) + os.sep
        harness_root = os.path.realpath(harness_root) + os.sep
        where = {func: classify(func[0], func[2], repro_root, harness_root)
                 for func in stats}
        for func, (_, ncalls, tottime, _, callers) in stats.items():
            bucket, module = where[func]
            if bucket is not None:
                self._charge(bucket, module, tottime)
            else:
                # A builtin: split its self time over its callers.
                rest = tottime
                for caller, (_, _, caller_tt, _) in callers.items():
                    bucket, module = where.get(caller, (None, None))
                    if bucket is not None:
                        self._charge(bucket, module, caller_tt)
                        rest -= caller_tt
                self._charge("builtin.other", None, rest)
            self._rows[(os.path.realpath(func[0]), func[1])] = (ncalls,
                                                                tottime)
        self.total_s = sum(self.self_s.values())

    def _charge(self, bucket, module, seconds):
        self.self_s[bucket] += seconds
        if module in self.module_s:
            self.module_s[module] += seconds

    def catch_all_s(self):
        """Self time no table attributed to a named bucket."""
        return sum(self.self_s[bucket] for bucket in CATCH_ALLS)

    def _row(self, function):
        code = function.__code__
        return self._rows.get(
            (os.path.realpath(code.co_filename), code.co_firstlineno),
            (0, 0.0))

    def calls(self, function):
        """Profiled call count of a Python function (0 if never called)."""
        return self._row(function)[0]

    def self_of(self, function):
        """Profiled self time of a Python function, in host seconds."""
        return self._row(function)[1]
