"""One naming convention for every observability surface.

Metric names, span names, and the hot-path profile's kernel keys all
come from this module, so a counter in a ``.prom`` export, a span in a
Perfetto trace, and a row in ``results/PROFILE_hotpath.json`` spell
the same thing the same way.  The convention (documented in
``docs/OBSERVABILITY.md``):

* **metrics** — ``cheetah_<subsystem>_<object>_<unit>``; cumulative
  counters end in ``_total``, histograms in their unit (``_ticks``);
* **spans** — short lifecycle-stage nouns (``queue``, ``service``,
  ``pass``, ``suspend``), categorized by subsystem;
* **kernel keys** — the function actually profiled
  (``encode_packet``, ``offer_batch``), not an abbreviation of it.

The profile payload historically used abbreviated keys (``encode``,
``offer``); :data:`LEGACY_KERNEL_KEYS` maps them to the canonical
spelling so renderers keep working against checked-in artifacts.
"""

from __future__ import annotations

# -- subsystems (metric name prefixes, span categories) ------------------------
PREFIX = "cheetah"

SUBSYSTEM_SCHEDULER = "scheduler"
SUBSYSTEM_TRANSPORT = "transport"
SUBSYSTEM_CHANNEL = "channel"
SUBSYSTEM_SWITCH = "switch"
SUBSYSTEM_CHAOS = "chaos"
SUBSYSTEM_QUERY = "query"

# -- scheduler / serving loop --------------------------------------------------
SCHED_TICK = "cheetah_scheduler_tick"
SCHED_OCCUPANCY = "cheetah_scheduler_occupancy_slots"
SCHED_QUEUE_DEPTH = "cheetah_scheduler_queue_depth_tenants"
SCHED_SUSPENDED = "cheetah_scheduler_suspended_tenants"
SCHED_ACTIVE = "cheetah_scheduler_active_tenants"
SCHED_ADMISSIONS = "cheetah_scheduler_admissions_total"
SCHED_COMPLETIONS = "cheetah_scheduler_completions_total"
SCHED_REJECTIONS = "cheetah_scheduler_rejections_total"
SCHED_PREEMPTIONS = "cheetah_scheduler_preemptions_total"
SCHED_RESUMES = "cheetah_scheduler_resumes_total"
SCHED_SERVICE = "cheetah_scheduler_drr_service_total"

# -- per-query outcome histograms (tick domain) --------------------------------
QUERY_LATENCY = "cheetah_query_latency_ticks"
QUERY_WAIT = "cheetah_query_wait_ticks"

# -- reliability transport (ReliableWorker / RateController) -------------------
TRANSPORT_RETRANSMISSIONS = "cheetah_transport_retransmissions_total"
TRANSPORT_TIMER_SCANS = "cheetah_transport_timer_scans_total"
TRANSPORT_RATE = "cheetah_transport_rate_packets_per_tick"
TRANSPORT_RATE_PEAK = "cheetah_transport_rate_peak_packets_per_tick"
TRANSPORT_QUEUE_SIGNALS = "cheetah_transport_queue_signals_total"
TRANSPORT_LOSS_EVENTS = "cheetah_transport_loss_events_total"

# -- lossy channels ------------------------------------------------------------
CHANNEL_DEPTH = "cheetah_channel_depth_packets"
CHANNEL_SENT = "cheetah_channel_sent_total"
CHANNEL_DROPS = "cheetah_channel_drops_total"
CHANNEL_TAIL_DROPS = "cheetah_channel_tail_drops_total"

# -- switch dataplane (ControlPlane / ShardedSwitchFrontend) -------------------
SWITCH_OFFERS = "cheetah_switch_offers_total"
SWITCH_PRUNES = "cheetah_switch_prunes_total"
SWITCH_SHARD_OFFERED = "cheetah_switch_shard_offered_entries"
SWITCH_SHARD_PRUNED = "cheetah_switch_shard_pruned_entries"
SWITCH_INSTALLED = "cheetah_switch_installed_queries"
SWITCH_LIVE_SHARDS = "cheetah_switch_live_shards"

# -- chaos engine --------------------------------------------------------------
CHAOS_EVENTS = "cheetah_chaos_events_total"
CHAOS_MIGRATIONS = "cheetah_chaos_migrations_total"
CHAOS_RESTORED = "cheetah_chaos_restored_total"
CHAOS_REPLAYED_PACKETS = "cheetah_chaos_replayed_packets_total"
CHAOS_RECOVERY_TICKS = "cheetah_chaos_recovery_ticks_total"

# -- span taxonomy (docs/OBSERVABILITY.md) -------------------------------------
SPAN_QUEUE = "queue"
SPAN_SERVICE = "service"
SPAN_SUSPEND = "suspend"
SPAN_REJECT = "reject"
#: Pass spans are named after the wire pass itself (the scenario's
#: ``TransferRequest.name``); this prefix marks derived span names.
SPAN_PASS_PREFIX = "pass:"

CAT_SCHEDULER = SUBSYSTEM_SCHEDULER
CAT_TRANSPORT = SUBSYSTEM_TRANSPORT
CAT_CHAOS = SUBSYSTEM_CHAOS

#: Counter-event names (Chrome trace ``ph: "C"`` tracks).
COUNTER_OCCUPANCY = SCHED_OCCUPANCY
COUNTER_QUEUE_DEPTH = SCHED_QUEUE_DEPTH

# -- hot-path profile kernel keys (results/PROFILE_hotpath.json) ---------------
KERNEL_ENCODE = "encode_packet"
KERNEL_DECODE_HEADER = "decode_header"
KERNEL_DECODE_VALUES = "decode_values"
KERNEL_ACK = "ack_codec"
KERNEL_OFFER = "offer_batch"

#: Canonical key order of the codec-pipeline kernel entries.
PROFILE_KERNEL_KEYS = (KERNEL_ENCODE, KERNEL_DECODE_HEADER,
                       KERNEL_DECODE_VALUES, KERNEL_ACK, KERNEL_OFFER)

#: Pre-PR-10 profile payloads abbreviated two kernel keys; renderers
#: accept both spellings so checked-in artifacts keep rendering.
LEGACY_KERNEL_KEYS = {
    "encode": KERNEL_ENCODE,
    "offer": KERNEL_OFFER,
}


def canonical_kernel_key(key: str) -> str:
    """The canonical spelling of a (possibly legacy) kernel key."""
    return LEGACY_KERNEL_KEYS.get(key, key)


__all__ = [name for name in dir() if name.isupper()] + [
    "canonical_kernel_key",
]
