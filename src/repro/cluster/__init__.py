"""Distributed execution model: workers, master, Spark baseline, timing.

The paper's testbed (five 2-core Spark workers + one master behind a
Tofino, DPDK CWorkers at ~10-12 Mpps, NICs restricted to 10/20G) is not
available; this package substitutes an analytic cost model calibrated to
the rates the paper itself reports, plus functional CWorker/CMaster
implementations that really serialize entries to the wire format.

Absolute seconds are not expected to match the testbed; the *shape* —
who wins, by what factor, where the network becomes the bottleneck — is
governed by the calibrated rates (see EXPERIMENTS.md).
"""

from repro.cluster.costmodel import (
    CostModel,
    HARDWARE_PROFILES,
    TimingBreakdown,
)
from repro.cluster.worker import CWorker, encode_value, decode_numeric
from repro.cluster.master import CMaster
from repro.cluster.spark import SparkBaseline, SparkReport
from repro.cluster.runtime import CheetahRuntime, CheetahReport
from repro.cluster.simulation import (
    SimulationConfig,
    SimulationError,
    SimulationReport,
    SCENARIOS,
    build_scenario,
)
from repro.cluster.qos import (
    DeficitRoundRobin,
    PriorityClass,
    QosPolicy,
    fifo_policy,
    parse_policy,
    tiers_policy,
)
from repro.cluster.scheduler import (
    QueryScheduler,
    ScheduleReport,
    SchedulerConfig,
    TenantReport,
    TenantSpec,
    tenant_specs,
)
from repro.cluster.events import (
    QueueReport,
    simulate_master_queue,
    simulate_master_queue_events,
    blocking_vs_unpruned,
)
from repro.cluster.dag import DagEdge, DagNode, WorkerDag


__all__ = [
    "CostModel",
    "HARDWARE_PROFILES",
    "TimingBreakdown",
    "CWorker",
    "encode_value",
    "decode_numeric",
    "CMaster",
    "SparkBaseline",
    "SparkReport",
    "CheetahRuntime",
    "CheetahReport",
    "SimulationConfig",
    "SimulationError",
    "SimulationReport",
    "SCENARIOS",
    "build_scenario",
    "DeficitRoundRobin",
    "PriorityClass",
    "QosPolicy",
    "fifo_policy",
    "parse_policy",
    "tiers_policy",
    "QueryScheduler",
    "ScheduleReport",
    "SchedulerConfig",
    "TenantReport",
    "TenantSpec",
    "tenant_specs",
    "QueueReport",
    "simulate_master_queue",
    "simulate_master_queue_events",
    "blocking_vs_unpruned",
    "DagEdge",
    "DagNode",
    "WorkerDag",
]
