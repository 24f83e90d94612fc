"""In-memory span recorder wrapped around the stack's public callables.

The benchmark measures every layer from outside: the server child calls
:func:`install` before ``ReproServer.start()``, which replaces a fixed
list of public callables with timing wrappers.  Each call records
``(name, start, end, parent, tenant)`` into flat arrays; nothing is
written until shutdown.  Nothing called per packet is wrapped — at ~1 us
per span the per-packet kernels would be measuring the wrapper — those
kernels are timed by ``drive.py`` instead.
"""

from __future__ import annotations

from array import array
from time import perf_counter
from typing import Callable, Dict, Optional

import numpy as np


class SpanRecorder:
    """Flat-array span store; one instance per traced server process."""

    def __init__(self) -> None:
        self.names: list = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        #: Tenant index in submission order (-1 = not attributable).
        self.tenant = array("l")
        self._stack: list = []
        #: Open spans that shield their callees (see :meth:`wrap`).
        self._shields = 0

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, fn: Callable, name: str,
             tenant_of: Optional[Callable] = None,
             shields: bool = False, shielded: bool = False) -> Callable:
        """``fn`` with a span around every call.

        ``tenant_of(args)`` names the tenant when the arguments expose
        it; otherwise the span inherits its parent's.  While a span
        wrapped with ``shields`` is open, calls to ``shielded``
        wrappers pass straight through: the sharded frontend calls the
        per-shard control planes' methods of the same name (one install
        is one span), and the reference run drives a private control
        plane that is not the serving data plane (and, for a compound
        query, its parts' reference runs).
        """
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        names, starts, ends = self.name, self.start, self.end
        parents, tenants, stack = self.parent, self.tenant, self._stack

        def traced(*args, **kwargs):
            if shielded and self._shields:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(starts)
            if tenant_of is not None:
                tenant = tenant_of(args)
            else:
                tenant = tenants[parent] if parent >= 0 else -1
            names.append(name_id)
            parents.append(parent)
            tenants.append(tenant)
            ends.append(0.0)
            stack.append(index)
            self._shields += shields
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                self._shields -= shields
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def aggregate(self, t0: float, t1: float) -> Dict:
        """Per-name totals of the spans inside ``[t0, t1]``.

        A span's self time is its duration minus the part its child
        spans cover; ``top_level_s`` sums the spans with no parent, so
        ``cpu - top_level_s`` is what the server spent outside every
        wrapped callable.
        """
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.uint16)
        duration = end - start
        covered = np.zeros(len(start))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        self_time = duration - covered
        inside = (start >= t0) & (end <= t1)
        out = {"top_level_s": float(duration[inside & ~has_parent].sum()),
               "spans": int(inside.sum()), "names": {}}
        for name_id, label in enumerate(self.names):
            mask = inside & (name == name_id)
            out["names"][label] = {
                "s": float(duration[mask].sum()),
                "self_s": float(self_time[mask].sum()),
                "calls": int(mask.sum()),
            }
        return out

    def save(self, path: str) -> None:
        """Write every span as column arrays (``numpy.load`` reads it)."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.uint16),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 tenant=np.frombuffer(self.tenant, dtype=np.int64))


def install(recorder: SpanRecorder) -> None:
    """Wrap the fixed list of public callables, layer by layer."""
    from repro.cluster import scheduler, simulation
    from repro.cluster.runtime import ShardedSwitchFrontend
    from repro.db.planner import QueryPlan
    from repro.net import reliability
    from repro.obs import Observability
    from repro.switch.controlplane import ControlPlane

    def patch(owner, attr: str, name: str, **kwargs) -> None:
        setattr(owner, attr,
                recorder.wrap(getattr(owner, attr), name, **kwargs))

    submitted = iter(range(1 << 62))

    def flow_tenant(config) -> int:
        # The scheduler gives tenant ``index`` the flow-id range
        # starting at ``index * (workers + shards)``.
        return config.fid_base // (config.workers + config.shards)

    patch(scheduler.ServingLoop, "submit", "cluster.scheduler.submit",
          tenant_of=lambda args: next(submitted))
    patch(scheduler.ServingLoop, "run_tick", "cluster.scheduler.run_tick")
    # ``_TenantRun.prepare`` calls the name the scheduler imported.
    patch(scheduler, "build_scenario", "cluster.simulation.build_scenario")
    patch(simulation.ClusterSimulation, "begin_transfer",
          "cluster.simulation.begin_transfer",
          tenant_of=lambda args: flow_tenant(args[0].config))
    patch(simulation.ActiveTransfer, "step", "cluster.simulation.step",
          tenant_of=lambda args: flow_tenant(args[0].config))
    patch(reliability.ReliableWorker, "tick", "net.reliability.worker_tick")
    patch(reliability.BatchedSwitchForwarder, "process_batch",
          "net.reliability.forwarder")
    patch(reliability.MasterEndpoint, "process_batch",
          "net.reliability.master_batch")
    for frontend in (ControlPlane, ShardedSwitchFrontend):
        for attr, name in (("install_query", "switch.install"),
                           ("uninstall_query", "switch.uninstall"),
                           ("suspend_query", "switch.suspend"),
                           ("resume_query", "switch.resume"),
                           ("offer_batch", "switch.offer_batch")):
            patch(frontend, attr, name, shields=True, shielded=True)
    # A compound query's plan runs its parts' plans: one span per query.
    patch(QueryPlan, "run", "db.reference_run", shields=True,
          shielded=True)
    patch(Observability, "on_service_tick", "obs.on_service_tick")
