"""Behaviour profiles of the six NoSQL systems in Table 1 (§2).

The paper's finding is behavioural, not code-level: in default configs none
of the six fails over away from a busy replica (coarse tens-of-seconds
timeouts), and with the timeout forced to 100 ms, three of them return read
*errors* instead of retrying a less-busy replica.  Only snitching
(Cassandra) and cloning (two systems) exist; nobody implements hedged/tied.

Each profile maps a system onto the strategy layer so the Table 1
experiment can reproduce those behaviours.  Where the OCR of the table is
ambiguous about which systems hold the two cloning checkmarks, we follow
the row shapes (see DESIGN.md §5) — the experiment's claims only depend on
the counts the prose states.
"""

from repro.cluster.strategies import (BaseStrategy, CloneStrategy,
                                      SnitchStrategy)
from repro._units import SEC


class NoSqlProfile:
    """Default tail-tolerance behaviour of one NoSQL system."""

    def __init__(self, name, default_timeout_us, failover_on_timeout,
                 has_snitch=False, has_clone=False, has_hedged=False):
        self.name = name
        self.default_timeout_us = default_timeout_us
        #: With timeout=100ms, does a timeout trigger a retry elsewhere —
        #: or does the user just get a read error?
        self.failover_on_timeout = failover_on_timeout
        self.has_snitch = has_snitch
        self.has_clone = has_clone
        self.has_hedged = has_hedged

    def default_strategy(self, cluster):
        """The system's behaviour in its default configuration."""
        if self.has_snitch:
            # Cassandra: snitching picks a "fastest" replica but the coarse
            # ranking cannot track 1-second rotating bursts.
            return SnitchStrategy(cluster)
        if self.has_clone:
            return CloneStrategy(cluster)
        return BaseStrategy(cluster, timeout_us=self.default_timeout_us)

    def tuned_strategy(self, cluster, timeout_us):
        """Behaviour with the timeout forced down (the 100 ms exercise)."""
        from repro.cluster.strategies import AppToStrategy
        if self.failover_on_timeout:
            return AppToStrategy(cluster, timeout_us=timeout_us)
        return BaseStrategy(cluster, timeout_us=timeout_us)


#: Table 1 rows.  Timeouts are the paper's "TO Val." column; the failover
#: column encodes "three of them do not failover on a timeout".
NOSQL_PROFILES = [
    NoSqlProfile("Cassandra", 12 * SEC, failover_on_timeout=True,
                 has_snitch=True),
    NoSqlProfile("Couchbase", 75 * SEC, failover_on_timeout=False),
    NoSqlProfile("HBase", 60 * SEC, failover_on_timeout=True,
                 has_clone=True),
    NoSqlProfile("MongoDB", 30 * SEC, failover_on_timeout=False),
    NoSqlProfile("Riak", 10 * SEC, failover_on_timeout=False),
    NoSqlProfile("Voldemort", 5 * SEC, failover_on_timeout=True,
                 has_clone=True),
]
