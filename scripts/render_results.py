#!/usr/bin/env python3
"""Render ``docs/RESULTS.md`` from the checked-in ``results/BENCH_*.json``.

Usage::

    python scripts/render_results.py           # (re)write docs/RESULTS.md
    python scripts/render_results.py --check   # exit 1 if the file is stale

The report is a pure, deterministic function of the benchmark JSON
files: same JSONs, same markdown, byte for byte.  CI's ``docs`` job (and
``scripts/check_docs.py``) runs ``--check`` so a PR that changes a bench
payload or the renderer without regenerating the report fails fast.

Sections render only for the benchmark files that exist, so the script
also works in partially populated results directories.
"""

from __future__ import annotations

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "results"
OUTPUT = REPO_ROOT / "docs" / "RESULTS.md"

#: Bench name -> (title, renderer) in report order; see render_report().
_HEADER = """\
# Reproduction results

**Auto-generated — do not edit.**  This report is rendered
deterministically from the machine-readable benchmark records under
[`results/`](../results) by
[`scripts/render_results.py`](../scripts/render_results.py); regenerate
it with `python scripts/render_results.py` after re-running any
`repro bench` command.  CI fails if this file is stale relative to the
checked-in `BENCH_*.json` files.

The benchmarks ran on tiny, CI-sized inputs — absolute seconds are
indicative only; the *shapes* (speedups, scaling, equivalence verdicts)
are the tracked claims.  See [ARCHITECTURE.md](ARCHITECTURE.md) for the
system layers and [SCHEDULER.md](SCHEDULER.md) for the multi-tenant
serving model.
"""


def _fmt(value, digits: int = 3) -> str:
    """Deterministic cell formatting (floats to fixed digits)."""
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _table(columns, rows) -> str:
    """A GitHub-markdown table; ``rows`` are dicts keyed by column."""
    lines = ["| " + " | ".join(columns) + " |",
             "|" + "|".join("---" for _ in columns) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(row.get(c, "")) for c in columns)
                     + " |")
    return "\n".join(lines)


def _load(name: str, prefix: str = "BENCH"):
    path = RESULTS_DIR / f"{prefix}_{name}.json"
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _environment_section(payloads) -> str:
    rows = []
    for name, payload in payloads:
        params = {
            key: payload[key]
            for key in ("rows", "scale", "shards", "seed", "loss_rate",
                        "reorder_window", "batch_size", "max_tenants",
                        "queries", "slots", "clients", "tenants", "kills")
            if isinstance(payload.get(key), (int, float))
        }
        rows.append({
            "benchmark file": f"`BENCH_{name}.json`",
            "parameters": ", ".join(
                f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in sorted(params.items())),
        })
    return (
        "## Benchmark provenance\n\n"
        "Every number below derives from these checked-in records "
        "(regenerate any of them with the `repro bench` command of the "
        "same name):\n\n"
        + _table(["benchmark file", "parameters"], rows)
    )


def _fig5_section(payload) -> str:
    rows = [
        {
            "query": row["query"],
            "Spark (s)": _fmt(row["spark_s"]),
            "Cheetah (s)": _fmt(row["cheetah_s"]),
            "unpruned frac": _fmt(row["unpruned"]),
            "vs Spark subsequent (%)": _fmt(row["vs_sub_pct"], 1),
        }
        for row in payload["rows"]
    ]
    return (
        "## Figure 5 — completion times (`repro bench fig5`)\n\n"
        f"Regenerated at workload scale {_fmt(payload['scale'], 6)} in "
        f"{_fmt(payload['wall_seconds'], 2)}s: Cheetah's switch pruning vs "
        "the calibrated Spark baseline, per benchmark query.\n\n"
        + _table(["query", "Spark (s)", "Cheetah (s)", "unpruned frac",
                  "vs Spark subsequent (%)"], rows)
    )


def _fig11_section(payload) -> str:
    largest = payload["row_counts"][-1]
    rows = []
    for name in sorted(payload["algorithms"]):
        point = payload["algorithms"][name][-1]
        rows.append({
            "algorithm": name,
            "per-packet (s)": _fmt(point["packet_seconds"]),
            "batched (s)": _fmt(point["batch_seconds"]),
            "speedup": _fmt(point["speedup"], 1) + "x",
            "pruned frac": _fmt(point["pruned_fraction"]),
            "decisions equivalent": point["equivalent"],
        })
    return (
        "## Figure 11 — batched dataplane at scale "
        "(`repro bench fig11`)\n\n"
        f"Every fig11 pruner over a {largest}-entry stream, sharded "
        f"across {payload['shards']} simulated pipeline(s): the "
        "vectorized `offer_batch` path vs per-packet `offer`, with "
        "bit-identical decisions asserted.\n\n"
        + _table(["algorithm", "per-packet (s)", "batched (s)", "speedup",
                  "pruned frac", "decisions equivalent"], rows)
        + "\n\nOverall speedup at the largest row count: "
        f"**{_fmt(payload['overall_speedup_at_largest'], 1)}x** "
        f"(all decisions equivalent: `{payload['all_equivalent']}`).  "
        "The "
        "`decision_domain` block of the JSON carries only "
        "deterministic fields — per-prefix prune counts and SHA-256 "
        "decision digests — which CI asserts byte-identical across "
        "repeat runs ([PERFORMANCE.md](PERFORMANCE.md))."
    )


def _e2e_section(payload) -> str:
    def rows_for(entries):
        return [
            {
                "scenario": row["scenario"],
                "loss": _fmt(row["loss_rate"], 2),
                "sequential (s)": _fmt(row["sequential_seconds"]),
                "pipelined (s)": _fmt(row["pipelined_seconds"]),
                "speedup": _fmt(row["speedup"], 2) + "x",
                "retransmissions": row["pipelined_retransmissions"],
                "identical result": row["pipelined_equivalent"],
            }
            for row in entries
        ]

    columns = ["scenario", "loss", "sequential (s)", "pipelined (s)",
               "speedup", "retransmissions", "identical result"]
    return (
        "## End-to-end cluster runs (`repro bench e2e`)\n\n"
        f"Scenarios driven through the full simulated cluster "
        f"({payload['rows']} rows, {payload['shards']} switch shard(s), "
        f"loss {_fmt(payload['loss_rate'], 2)}, reorder window "
        f"{payload['reorder_window']}): batched pipelined switch "
        "dispatch vs per-packet sequential dispatch, every result "
        "checked against `QueryPlan.run`.\n\n"
        + _table(columns, rows_for(payload["scenarios"]))
        + "\n\nLoss sweep (same scenario, growing loss):\n\n"
        + _table(columns, rows_for(payload["loss_sweep"]))
        + "\n\nOverall pipelined speedup: "
        f"**{_fmt(payload['overall_speedup'], 2)}x**; all runs identical "
        f"to the functional path: `{payload['all_equivalent']}`."
    )


def _concurrency_section(payload) -> str:
    rows = [
        {
            "tenants": row["tenants"],
            "makespan (ticks)": row["makespan_ticks"],
            "sum of solo ticks": row["sum_solo_ticks"],
            "throughput (entries/tick)":
                _fmt(row["throughput_entries_per_tick"], 2),
            "consolidation speedup":
                _fmt(row["consolidation_speedup"], 2) + "x",
            "mean service (ticks)": _fmt(row["mean_service_ticks"], 0),
            "all identical": row["all_equivalent"],
        }
        for row in payload["runs"]
    ]
    mix = ", ".join(payload["scenario_mix"])
    return (
        "## Multi-tenant serving (`repro bench concurrency`)\n\n"
        f"Up to {payload['max_tenants']} concurrent tenants (scenario "
        f"mix: {mix}; {payload['rows']} rows each) served through the "
        f"shared switch frontend ({payload['shards']} shard(s), loss "
        f"{_fmt(payload['loss_rate'], 2)}).  Time is in event-loop "
        "ticks, the simulation's native clock, so these numbers are "
        "deterministic.  N tenants' passes advance in the same global "
        "ticks: the shared makespan tracks the *slowest* tenant rather "
        "than the sum of all tenants, so aggregate throughput scales "
        "with tenant count while each tenant's own latency stays near "
        "its solo tick count.\n\n"
        + _table(["tenants", "makespan (ticks)", "sum of solo ticks",
                  "throughput (entries/tick)", "consolidation speedup",
                  "mean service (ticks)", "all identical"], rows)
        + "\n\nThroughput scaling at the largest fleet: "
        f"**{_fmt(payload['throughput_scaling'], 2)}x**; every tenant "
        "(solo and shared) identical to `QueryPlan.run`: "
        f"`{payload['all_equivalent']}`."
    )


def _replay_section(payload) -> str:
    latency_rows = [
        {
            "process": run["process"],
            "served": run["served"],
            "rejected": run["rejected"],
            "makespan (ticks)": run["ticks"],
            "p50 (ticks)": run["latency"]["p50_ticks"],
            "p95 (ticks)": run["latency"]["p95_ticks"],
            "p99 (ticks)": run["latency"]["p99_ticks"],
            "max (ticks)": run["latency"]["max_ticks"],
            "all identical": run["all_equivalent"],
        }
        for run in payload["runs"]
    ]
    occupancy_rows = [
        {
            "process": run["process"],
            "mean occupancy": _fmt(run["occupancy"]["mean"], 2),
            "peak occupancy": run["occupancy"]["peak"],
            "peak queue depth": run["occupancy"]["peak_queue_depth"],
            "rejections": len(run["rejections"]),
            "throughput (entries/tick)":
                _fmt(run["throughput_entries_per_tick"], 2),
        }
        for run in payload["runs"]
    ]
    return (
        "## Trace replay — tail latency under arrival processes "
        "(`repro bench replay`)\n\n"
        f"{payload['queries']}-query traces ({payload['rows']} rows "
        f"each) generated per arrival process and replayed through the "
        f"scheduler under a {payload['slots']}-slot budget "
        f"({payload['shards']} shard(s), loss "
        f"{_fmt(payload['loss_rate'], 2)}).  Latency is "
        "arrival-to-completion in event-loop ticks (queueing included), "
        "from the per-tick telemetry probe; every metric here is "
        "deterministic for the recorded seed.  The trace format and "
        "generators are specified in [TRACES.md](TRACES.md).\n\n"
        + _table(["process", "served", "rejected", "makespan (ticks)",
                  "p50 (ticks)", "p95 (ticks)", "p99 (ticks)",
                  "max (ticks)", "all identical"], latency_rows)
        + "\n\nSlot occupancy over the same replays:\n\n"
        + _table(["process", "mean occupancy", "peak occupancy",
                  "peak queue depth", "rejections",
                  "throughput (entries/tick)"], occupancy_rows)
        + "\n\nEvery replayed tenant identical to `QueryPlan.run`: "
        f"`{payload['all_equivalent']}`."
    )


def _qos_section(payload) -> str:
    class_rows = []
    for run in payload["runs"]:
        for name in sorted(run["classes"]):
            entry = run["classes"][name]
            latency = entry["latency"]
            class_rows.append({
                "policy": run["policy"],
                "class": name,
                "served": entry["served"],
                "p50 (ticks)": latency["p50_ticks"],
                "p99 (ticks)": latency["p99_ticks"],
                "max (ticks)": latency["max_ticks"],
                "preemptions": entry["preemptions"],
                "suspended (ticks)": entry["suspended_ticks"],
                "all identical": run["all_equivalent"],
            })
    improvement = payload["interactive_p99_improvement"]
    return (
        "## QoS serving — preemption on vs off (`repro bench qos`)\n\n"
        f"{payload['batch_tenants']} long batch-class tenants saturate "
        f"a {payload['slots']}-slot budget from tick 0; "
        f"{payload['interactive_tenants']} short interactive-class "
        f"tenants arrive every {payload['interactive_stride']} ticks.  "
        "The same tenant set is served under the three-tier policy "
        "([QOS.md](QOS.md)) with slot preemption enabled (`tiers`) and "
        "disabled (`tiers-no-preempt`); latency is "
        "arrival-to-completion in event-loop ticks, per QoS class.  "
        "Every tenant — including the preempted-and-resumed batch "
        "tenants — still produces a result identical to its solo "
        "`QueryPlan.run`.\n\n"
        + _table(["policy", "class", "served", "p50 (ticks)",
                  "p99 (ticks)", "max (ticks)", "preemptions",
                  "suspended (ticks)", "all identical"], class_rows)
        + "\n\nInteractive-class p99 improvement from preemption: "
        f"**{_fmt(improvement, 2)}x** (all results identical: "
        f"`{payload['all_equivalent']}`)."
    )


def _load_section(payload) -> str:
    def phase_row(label, phase):
        wall = phase["wall_latency"]
        ticks = phase["tick_latency"]
        return {
            "phase": label,
            "queries": phase["queries"],
            "served": phase["served"],
            "wall p50 (ms)": _fmt(wall["p50_seconds"] * 1e3, 1),
            "wall p95 (ms)": _fmt(wall["p95_seconds"] * 1e3, 1),
            "wall p99 (ms)": _fmt(wall["p99_seconds"] * 1e3, 1),
            "tick p50": ticks["p50_ticks"],
            "tick p95": ticks["p95_ticks"],
            "tick p99": ticks["p99_ticks"],
            "all identical": phase["all_equivalent"],
        }

    rows = [phase_row("open loop", payload["open_loop"])]
    closed = payload.get("closed_loop")
    if closed is not None:
        rows.append(phase_row("closed loop", closed))
    open_loop = payload["open_loop"]
    closed_note = ""
    if closed is not None:
        closed_note = (
            f"  The closed loop runs {closed['clients']} clients "
            f"issuing {closed['queries_per_client']} back-to-back "
            "queries each against a live server (no hold barrier), so "
            "its wall latency is the interactive request-response "
            "number; its tick metrics depend on socket race order and "
            "are not tracked.")
    return (
        "## Socket serving under load (`repro bench load`)\n\n"
        f"{payload['clients']} concurrent TCP connections to a live "
        f"`ReproServer` (proto/v1, policy `{payload['policy']}`, "
        f"{payload['slots']} slots, loss "
        f"{_fmt(payload['loss_rate'], 2)}), arrivals drawn from the "
        f"`{payload['process']}` process with QoS classes cycling "
        f"through {', '.join(payload['priority_mix'])}.  Wall-clock "
        "latency (connect → result frame, host-dependent and "
        "indicative only) rides next to the deterministic tick-domain "
        "latency from the same run; the open loop's full tick domain "
        "is byte-identical across runs and CI asserts it."
        + closed_note + "\n\n"
        + _table(["phase", "queries", "served", "wall p50 (ms)",
                  "wall p95 (ms)", "wall p99 (ms)", "tick p50",
                  "tick p95", "tick p99", "all identical"], rows)
        + "\n\nOpen-loop swarm completed in "
        f"{_fmt(open_loop['wall_seconds'], 2)}s wall; every served "
        "query identical to `QueryPlan.run`: "
        f"`{payload['all_equivalent']}`.  Protocol details in "
        "[PROTOCOL.md](PROTOCOL.md)."
    )


def _chaos_section(payload) -> str:
    def target(entry):
        if "shard" in entry:
            return f"shard {entry['shard']}"
        if "worker" in entry:
            return f"worker {entry['worker']}"
        return f"loss → {_fmt(entry.get('loss_rate'), 2)}"

    def effect(entry):
        if entry["event"] == "kill_shard":
            return f"{entry['migrated_queries']} queries migrated"
        if entry["event"] == "restart":
            return (f"{entry['restored_queries']} restored after "
                    f"{entry['recovery_ticks']} tick(s) down")
        if entry["event"] == "kill_worker":
            return f"{entry['replayed_packets']} packets replayed"
        return "channels degraded"

    timeline_rows = [
        {"tick": entry["tick"], "event": entry["event"],
         "target": target(entry), "effect": effect(entry)}
        for entry in payload["timeline"]
    ]
    compare_rows = []
    for label, run in (("fault-free baseline", payload["baseline"]),
                       ("under chaos", payload["chaos"])):
        latency = run["latency"]
        compare_rows.append({
            "run": label,
            "served": run["served"],
            "makespan (ticks)": run["ticks"],
            "p50 (ticks)": latency["p50_ticks"],
            "p99 (ticks)": latency["p99_ticks"],
            "entries delivered": run["delivered"],
            "all identical": run["all_equivalent"],
        })
    mix = ", ".join(payload["scenario_mix"])
    return (
        "## Chaos — fault injection and query migration "
        "(`repro bench chaos`)\n\n"
        f"{payload['tenants']} tenants (scenario mix: {mix}; "
        f"{payload['rows']} rows each) served across "
        f"{payload['shards']} switch shards under a seeded failure "
        f"schedule ({payload['kills']} kills, seed {payload['seed']}): "
        "shard kills checkpoint the dead pipeline's installed queries "
        "and park them on survivors, restarts re-install them with "
        "pruner state intact, and worker kills replay the unacked "
        "§7.2 window ([CHAOS.md](CHAOS.md)).  The injected timeline:\n\n"
        + _table(["tick", "event", "target", "effect"], timeline_rows)
        + "\n\nThe same tenant set with and without the faults:\n\n"
        + _table(["run", "served", "makespan (ticks)", "p50 (ticks)",
                  "p99 (ticks)", "entries delivered", "all identical"],
                 compare_rows)
        + "\n\nMakespan inflation from the faults: "
        f"**{_fmt(payload['makespan_inflation'], 2)}x** "
        f"({payload['migrations']} migrations, "
        f"{payload['restored']} restores, "
        f"{payload['replayed_packets']} replayed packets); every "
        "survivor identical to its solo `QueryPlan.run`: "
        f"`{payload['all_equivalent']}`."
    )


def _congestion_section(payload) -> str:
    def cap(value):
        return "∞" if value is None else value

    sweep_rows = [
        {
            "loss": _fmt(cell["loss_rate"], 2),
            "tenants": cell["tenants"],
            "queue cap": cap(cell["queue_capacity"]),
            "fixed goodput": _fmt(cell["fixed"]["goodput_entries_per_tick"], 4),
            "aimd goodput": _fmt(cell["aimd"]["goodput_entries_per_tick"], 4),
            "goodput ratio": _fmt(cell["goodput_ratio"], 2),
            "retx ratio": _fmt(cell["retransmission_ratio"], 2),
            "congested": cell["congested"],
        }
        for cell in payload["sweep"]
    ]
    fairness = payload["fairness"]
    fairness_rows = [
        {
            "class": name,
            "weight": _fmt(fairness["weights"][name], 1),
            "mean rate (pkts/tick)": _fmt(fairness["mean_rates"][name], 2),
            "rate / weight": _fmt(fairness["normalized_rates"][name], 2),
        }
        for name in sorted(fairness["weights"],
                           key=fairness["weights"].get, reverse=True)
    ]
    serving_rows = []
    for mode in ("fixed", "aimd"):
        classes = payload["serving"][mode]["classes"]
        for name in sorted(classes):
            summary = classes[name]
            serving_rows.append({
                "mode": mode,
                "class": name,
                "p99 latency (ticks)": summary["latency"]["p99_ticks"],
                "goodput (entries/tick)": _fmt(
                    summary["goodput_entries_per_tick"], 4),
            })
    ratio = payload["interactive_batch_goodput_ratio"]
    return (
        "## Congestion — AIMD rate control vs the fixed schedule "
        "(`repro bench congestion`)\n\n"
        "Every (loss × tenant-count × queue-capacity) cell serves the "
        "same tenant set under both transport modes "
        "([CONGESTION.md](CONGESTION.md)); *congested* cells have a "
        "finite switch ingress queue **and** loss ≥ 0.02 — the regime "
        "where the fixed schedule's retransmission storms keep the "
        "queue overflowing.  Results are identical in every cell "
        f"(`all_equivalent = {payload['all_equivalent']}`): congestion "
        "control moves protocol accounting, never answers.\n\n"
        + _table(["loss", "tenants", "queue cap", "fixed goodput",
                  "aimd goodput", "goodput ratio", "retx ratio",
                  "congested"], sweep_rows)
        + "\n\nOver the congested cells AIMD's goodput advantage is "
        f"**≥ {_fmt(payload['congested_goodput_ratio_min'], 2)}x** "
        f"(mean {_fmt(payload['congested_goodput_ratio_mean'], 2)}x) "
        "with retransmission overhead at most "
        f"**{_fmt(payload['congested_retransmission_ratio_max'], 2)}x** "
        "of the fixed schedule's.  With unbounded queues the fixed "
        "schedule is already near-optimal and pacing only adds "
        "latency — documented above, not hidden.\n\n"
        "QoS-class weights map onto the controllers' additive "
        "increments; sharing one bottleneck "
        f"(capacity {fairness['capacity']}, {fairness['ticks']} "
        "ticks), steady-state rates converge proportional to weight "
        "(normalized spread "
        f"**{_fmt(fairness['normalized_spread'], 2)}**, ideal 1.0):\n\n"
        + _table(["class", "weight", "mean rate (pkts/tick)",
                  "rate / weight"], fairness_rows)
        + "\n\nEnd-to-end mixed-class serving (tiers policy, finite "
        "queues, loss 0.02) keeps the interactive/batch goodput "
        f"separation under AIMD ({_fmt(ratio['aimd'], 2)}x vs "
        f"{_fmt(ratio['fixed'], 2)}x fixed):\n\n"
        + _table(["mode", "class", "p99 latency (ticks)",
                  "goodput (entries/tick)"], serving_rows)
    )


#: Approximate paper values for Figure 9 (master blocking seconds vs
#: unpruned %), digitized from the curves at 10 Gbps; the tracked
#: claims are the *shape* (zero-blocking region, then super-linear
#: growth) and the op ordering (TOP-N < DISTINCT < max-GROUP-BY).
_FIG9_PAPER = {
    5: {"topn_s": 0.0, "distinct_s": 0.0, "max_groupby_s": 0.0},
    10: {"topn_s": 0.0, "distinct_s": 0.0, "max_groupby_s": 1.0},
    20: {"topn_s": 0.0, "distinct_s": 1.0, "max_groupby_s": 4.0},
    30: {"topn_s": 0.0, "distinct_s": 2.5, "max_groupby_s": 7.5},
    40: {"topn_s": 0.5, "distinct_s": 4.0, "max_groupby_s": 10.5},
    50: {"topn_s": 1.0, "distinct_s": 6.0, "max_groupby_s": 14.0},
}


def _parse_results_table(text: str):
    """Parse one ``results/*.txt`` aligned text table into rows.

    Format (see ``ExperimentResult.render``): a ``== id: title ==``
    header line, a column-name line, a dashed rule, then one
    whitespace-aligned row per line until an optional ``note:`` footer.
    """
    lines = [line.rstrip() for line in text.splitlines() if line.strip()]
    columns = lines[1].split()
    rows = []
    for line in lines[3:]:
        if line.startswith("note:"):
            break
        values = line.split()
        row = {}
        for column, value in zip(columns, values):
            try:
                row[column] = int(value)
            except ValueError:
                try:
                    row[column] = float(value)
                except ValueError:
                    row[column] = value
        rows.append(row)
    return rows


def _fig9_section() -> str:
    path = RESULTS_DIR / "fig9.txt"
    if not path.exists():
        return None
    rows = _parse_results_table(path.read_text(encoding="utf-8"))
    table_rows = []
    for row in rows:
        paper = _FIG9_PAPER.get(row["unpruned_pct"], {})
        entry = {"unpruned %": row["unpruned_pct"]}
        for column, label in (("topn_s", "TOP-N"),
                              ("distinct_s", "DISTINCT"),
                              ("max_groupby_s", "max-GROUP-BY")):
            repro = row[column]
            entry[f"{label} repro (s)"] = _fmt(repro, 2)
            reference = paper.get(column)
            entry[f"{label} Δ vs paper (s)"] = (
                _fmt(repro - reference, 2) if reference is not None
                else "n/a")
        table_rows.append(entry)
    columns = ["unpruned %"]
    for label in ("TOP-N", "DISTINCT", "max-GROUP-BY"):
        columns += [f"{label} repro (s)", f"{label} Δ vs paper (s)"]
    return (
        "## Figure 9 — master blocking latency vs unpruned fraction "
        "(`repro run fig9`)\n\n"
        "Time the master spends finishing the query *after* streaming "
        "ends, as the unpruned fraction grows (from the checked-in "
        "[`results/fig9.txt`](../results/fig9.txt)).  Paper deltas are "
        "against values digitized from the paper's Figure 9 curves at "
        "10 Gbps (approximate); the tracked claims are the shape — a "
        "zero-blocking region while the master absorbs the stream in "
        "flight, then super-linear growth — and the op ordering "
        "TOP-N < DISTINCT < max-GROUP-BY at 50% unpruned, both of "
        "which the reproduction preserves.\n\n"
        + _table(columns, table_rows)
    )


def _fig10_section() -> str:
    """All six Figure 10 panels (per-operator pruning-rate sweeps)."""
    panels = []
    for letter in "abcdef":
        path = RESULTS_DIR / f"fig10{letter}.txt"
        if not path.exists():
            continue
        text = path.read_text(encoding="utf-8")
        title = text.splitlines()[0].strip("= ").split(":", 1)[1].strip()
        rows = _parse_results_table(text)
        columns = list(rows[0]) if rows else []
        note = next((line.split(":", 1)[1].strip()
                     for line in text.splitlines()
                     if line.startswith("note:")), None)
        part = (f"### Figure 10{letter} — {title} "
                f"([`results/fig10{letter}.txt`]"
                f"(../results/fig10{letter}.txt))\n\n"
                + _table(columns, rows))
        if note:
            part += f"\n\nPaper reference: {note}."
        panels.append(part)
    if not panels:
        return None
    return (
        "## Figure 10 — per-operator pruning rates vs sketch size "
        "(`repro run fig10a` … `fig10f`)\n\n"
        "Fraction of entries surviving the switch (lower is better; "
        "`opt` is the omniscient lower bound) as each operator's "
        "in-switch memory budget grows, from the checked-in "
        "`results/fig10*.txt` tables.\n\n"
        + "\n\n".join(panels)
    )


def _obs_section(payload) -> str:
    serving = payload["serving"]
    fig11 = payload["fig11"]
    rows = [
        {
            "path": f"serving loop ({payload['tenants']}-tenant serve, spans on)",
            "obs off (s)": _fmt(serving["obs_off_seconds"]),
            "obs on (s)": _fmt(serving["obs_on_seconds"]),
            "overhead": _fmt(serving["overhead_ratio"], 3) + "x",
        },
        {
            "path": f"fig11 batched kernel ({fig11['rows']} rows)",
            "obs off (s)": _fmt(fig11["off_seconds"]),
            "obs on (s)": _fmt(fig11["on_seconds"]),
            "overhead": _fmt(fig11["overhead_ratio"], 3) + "x",
        },
    ]
    return (
        "## Observability overhead (`repro bench obs`)\n\n"
        "The [OBSERVABILITY.md](OBSERVABILITY.md) invariants, measured: "
        "the same seeded fleet served bare (`obs=None`) and fully "
        "instrumented (metrics + span tracing), walls interleaved "
        "(the arm that runs first alternates) and median-of-"
        f"{payload['repeats']}; the fig11 batched dataplane kernel "
        "bare vs. with per-batch counter publication.  CI gates both "
        "overheads at 1.10x and asserts the two determinism claims "
        "below.\n\n"
        + _table(["path", "obs off (s)", "obs on (s)", "overhead"],
                 rows)
        + "\n\n"
        f"- obs-on decisions bit-identical to obs-off "
        f"(sha256-compared): `{payload['decisions_identical']}`\n"
        f"- repeated runs export byte-identical OpenMetrics + trace "
        f"JSON: `{payload['exports_identical']}`\n"
        f"- span events per instrumented serve: "
        f"{serving['span_events']}; metric families: "
        f"{serving['metric_names']}\n"
        f"- every tenant equivalent to its solo run: "
        f"`{payload['all_equivalent']}`"
    )


def _kernel_names():
    """The canonical kernel-key spellings.

    Sourced from ``repro.obs.names`` when importable (the single
    naming convention), with an identical inline fallback so the
    renderer stays standalone against a bare checkout."""
    try:
        sys.path.insert(0, str(REPO_ROOT / "src"))
        from repro.obs import names

        return names.PROFILE_KERNEL_KEYS
    except ImportError:  # pragma: no cover - bare checkout
        return ("encode_packet", "decode_header", "decode_values",
                "ack_codec", "offer_batch")


def _profile_section() -> str:
    payload = _load("hotpath", prefix="PROFILE")
    if payload is None:
        return None
    codec = payload["codec_pipeline"]
    kernel_keys = _kernel_names()
    labels = {
        "encode_packet": "encode_packet(CheetahPacket) / encode_stream",
        "decode_header": "decode_header / decode_header_fields",
        "decode_values": "decode_values / decode_values_run",
        "ack_codec": "decode_ack(encode_ack(Ack)) / unpack_ack(pack_ack)",
        "offer_batch": "offer / offer_batch",
    }
    kernel_rows = []
    for key in kernel_keys:
        entry = codec[key]
        bulk = entry.get("bulk_seconds", entry.get("batched_seconds"))
        speedup = entry.get("bulk_speedup", entry.get("batched_speedup"))
        kernel_rows.append({
            "kernel": f"`{labels.get(key, key)}`",
            "per-packet (s)": _fmt(entry["per_packet_seconds"]),
            "stream/batched (s)": _fmt(bulk),
            "speedup": _fmt(speedup, 2) + "x",
        })

    def hotspot_rows(loop):
        return [
            {
                "function": f"`{row['function']}`",
                "calls": row["calls"],
                "cumulative (s)": _fmt(row["cumtime_seconds"]),
            }
            for row in loop["hotspots"][:6]
        ]

    sched = payload["scheduler_loop"]
    return (
        "## Hot-path profile (`repro profile`)\n\n"
        f"Deterministic profile of the two serving hot loops "
        f"({payload['rows']} packets through the codec + `offer_batch` "
        f"pipeline, {payload['shards']} shard(s); a "
        f"{sched['tenants']}-tenant serve of {sched['ticks']} scheduler "
        "ticks), from the checked-in "
        "[`results/PROFILE_hotpath.json`](../results/PROFILE_hotpath"
        ".json).  Workload counters are seed-fixed; seconds are host "
        "measurements.  The workflow and the kernel inventory are "
        "documented in [PERFORMANCE.md](PERFORMANCE.md).\n\n"
        "Per-packet reference tier (one validated dataclass per packet "
        "or ACK) against the stream tier the transport runs, over the "
        "identical packet vector (bit-identical outputs asserted "
        "in-run):\n\n"
        + _table(["kernel", "per-packet (s)", "stream/batched (s)",
                  "speedup"], kernel_rows)
        + "\n\nTop codec-pipeline functions by cumulative time:\n\n"
        + _table(["function", "calls", "cumulative (s)"],
                 hotspot_rows(codec))
        + "\n\nTop scheduler-loop functions "
        f"({sched['entries']} entries served across {sched['served']} "
        f"tenants, all equivalent: `{sched['all_equivalent']}`):\n\n"
        + _table(["function", "calls", "cumulative (s)"],
                 hotspot_rows(sched))
    )


def _fig11_panels_section() -> str:
    """The six Figure 11 panels (per-operator pruning vs data scale)."""
    panels = []
    for letter in "abcdef":
        path = RESULTS_DIR / f"fig11{letter}.txt"
        if not path.exists():
            continue
        text = path.read_text(encoding="utf-8")
        title = text.splitlines()[0].strip("= ").split(":", 1)[1].strip()
        rows = _parse_results_table(text)
        columns = list(rows[0]) if rows else []
        note = next((line.split(":", 1)[1].strip()
                     for line in text.splitlines()
                     if line.startswith("note:")), None)
        part = (f"### Figure 11{letter} — {title} "
                f"([`results/fig11{letter}.txt`]"
                f"(../results/fig11{letter}.txt))\n\n"
                + _table(columns, rows))
        if note:
            part += f"\n\nPaper reference: {note}."
        panels.append(part)
    if not panels:
        return None
    return (
        "## Figure 11 — per-operator pruning vs data scale "
        "(`repro run fig11a` … `fig11f`)\n\n"
        "Fraction of entries surviving the switch as the stream grows "
        "(lower is better; `opt` is the omniscient lower bound), per "
        "operator, from the checked-in `results/fig11*.txt` tables.  "
        "These are the paper's Figure 11 *pruning-rate* panels; the "
        "batched-dataplane *throughput* benchmark of the same name is "
        "reported above.\n\n"
        + "\n\n".join(panels)
    )


def _fig12_13_section() -> str:
    path = RESULTS_DIR / "fig12_13.txt"
    if not path.exists():
        return None
    text = path.read_text(encoding="utf-8")
    rows = _parse_results_table(text)
    note = next((line.split(":", 1)[1].strip()
                 for line in text.splitlines()
                 if line.startswith("note:")), None)
    table_rows = [
        {
            "operator": row["op"],
            "entries": row["entries"],
            "server (s)": _fmt(row["server_s"], 2),
            "switch CPU (s)": _fmt(row["switch_cpu_s"], 2),
            "slowdown": _fmt(row["slowdown"], 1) + "x",
        }
        for row in rows
    ]
    section = (
        "## Figures 12–13 — server vs switch-CPU processing "
        "(`repro run fig12_13`)\n\n"
        "Processing time for the same operator stream on the server "
        "CPU vs offloaded to the switch's management CPU, from the "
        "checked-in [`results/fig12_13.txt`](../results/fig12_13.txt)."
        "\n\n"
        + _table(["operator", "entries", "server (s)", "switch CPU (s)",
                  "slowdown"], table_rows)
    )
    if note:
        section += f"\n\nPaper reference: {note}."
    return section


def _fig6_section() -> str:
    path = RESULTS_DIR / "fig6.txt"
    if not path.exists():
        return None
    rows = _parse_results_table(path.read_text(encoding="utf-8"))
    table_rows = [
        {
            "sweep": row["sweep"],
            "x": row["x"],
            "Cheetah (s)": _fmt(row["cheetah_s"], 2),
            "Spark (s)": _fmt(row["spark_s"], 2),
            "speedup": _fmt(row["spark_s"] / row["cheetah_s"], 2) + "x",
        }
        for row in rows
    ]
    return (
        "## Figure 6 — DISTINCT vs workers and data scale "
        "(`repro run fig6`)\n\n"
        "DISTINCT completion time sweeping worker count (a) and data "
        "scale in millions of entries (b), from the checked-in "
        "[`results/fig6.txt`](../results/fig6.txt).  The paper's "
        "claims — Cheetah wins at every setting, and the gap *widens* "
        "with data scale because Spark's compute grows while Cheetah "
        "stays network-bound — both hold in the reproduction.\n\n"
        + _table(["sweep", "x", "Cheetah (s)", "Spark (s)", "speedup"],
                 table_rows)
    )


def _fig7_section() -> str:
    path = RESULTS_DIR / "fig7.txt"
    if not path.exists():
        return None
    rows = _parse_results_table(path.read_text(encoding="utf-8"))
    table_rows = [
        {
            "result size (%)": row["result_pct"],
            "NetAccel drain (s)": _fmt(row["netaccel_drain_s"]),
            "Cheetah overhead (s)": _fmt(row["cheetah_overhead_s"]),
            "ratio": _fmt(row["netaccel_drain_s"]
                          / row["cheetah_overhead_s"], 1) + "x",
        }
        for row in rows
    ]
    return (
        "## Figure 7 — NetAccel result drain vs Cheetah streaming "
        "(`repro run fig7`)\n\n"
        "NetAccel materializes results in the switch and must *drain* "
        "them afterwards — a lower-bound overhead that grows linearly "
        "with result size — while Cheetah streams pruned entries and "
        "stays near-flat (from the checked-in "
        "[`results/fig7.txt`](../results/fig7.txt)).\n\n"
        + _table(["result size (%)", "NetAccel drain (s)",
                  "Cheetah overhead (s)", "ratio"], table_rows)
    )


def _fig8_section() -> str:
    path = RESULTS_DIR / "fig8.txt"
    if not path.exists():
        return None
    rows = _parse_results_table(path.read_text(encoding="utf-8"))
    table_rows = [
        {
            "query": row["query"],
            "system": row["system"],
            "computation (s)": _fmt(row["computation_s"], 2),
            "network (s)": _fmt(row["network_s"], 2),
            "other (s)": _fmt(row["other_s"], 2),
            "total (s)": _fmt(row["total_s"], 2),
        }
        for row in rows
    ]
    return (
        "## Figure 8 — delay breakdown: Spark vs Cheetah at 10G/20G "
        "(`repro run fig8`)\n\n"
        "Where the time goes (from the checked-in "
        "[`results/fig8.txt`](../results/fig8.txt)): Spark is "
        "compute-bound — doubling the link to 20G buys it nothing — "
        "while Cheetah is network-bound, so 20G roughly halves its "
        "network share, exactly the paper's Figure 8 shape.\n\n"
        + _table(["query", "system", "computation (s)", "network (s)",
                  "other (s)", "total (s)"], table_rows)
    )


_SECTIONS = (
    ("fig5", _fig5_section),
    ("fig11", _fig11_section),
    ("e2e", _e2e_section),
    ("concurrency", _concurrency_section),
    ("replay", _replay_section),
    ("qos", _qos_section),
    ("load", _load_section),
    ("chaos", _chaos_section),
    ("congestion", _congestion_section),
    ("obs", _obs_section),
)


def render_report() -> str:
    """The full RESULTS.md content as a string."""
    payloads = [(name, _load(name)) for name, _ in _SECTIONS]
    available = [(name, payload) for name, payload in payloads
                 if payload is not None]
    parts = [_HEADER, _environment_section(available)]
    renderers = dict(_SECTIONS)
    for name, payload in available:
        parts.append(renderers[name](payload))
    for section in (_profile_section, _fig6_section, _fig7_section,
                    _fig8_section, _fig9_section, _fig10_section,
                    _fig11_panels_section, _fig12_13_section):
        rendered = section()
        if rendered is not None:
            parts.append(rendered)
    return "\n\n".join(parts) + "\n"


def main(argv) -> int:
    check = "--check" in argv
    content = render_report()
    if check:
        if not OUTPUT.exists():
            print(f"STALE: {OUTPUT.relative_to(REPO_ROOT)} is missing; "
                  "run: python scripts/render_results.py")
            return 1
        if OUTPUT.read_text(encoding="utf-8") != content:
            print(f"STALE: {OUTPUT.relative_to(REPO_ROOT)} does not match "
                  "the checked-in bench JSONs; "
                  "run: python scripts/render_results.py")
            return 1
        print(f"{OUTPUT.relative_to(REPO_ROOT)} is up to date")
        return 0
    OUTPUT.write_text(content, encoding="utf-8")
    print(f"wrote {OUTPUT.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
