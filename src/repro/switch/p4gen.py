"""P4 source generation for compiled queries.

The paper's prototype is written in P4-14 for the Tofino.  This module
emits a human-readable P4-style program for any pruner the compiler
produces: the Cheetah header parser (Figure 4), the register arrays and
stateful ALU actions the algorithm needs, and the end-of-pipeline prune
table.  The output is illustrative (it is not fed to a real compiler)
but structurally complete — every register, table and action the
simulator uses appears, with the same sizes, so the Table 2 accounting
can be read off the generated source.
"""

from __future__ import annotations

from typing import List

from repro.core.base import PruningAlgorithm
from repro.core.distinct import DistinctPruner
from repro.core.filtering import FilterPruner
from repro.core.groupby import GroupByPruner
from repro.core.having import HavingPruner
from repro.core.join import FilterKind, JoinPruner
from repro.core.skyline import Projection, SkylinePruner
from repro.core.topn import TopNDeterministic

_HEADER = '''\
/* Generated by repro.switch.p4gen — Cheetah pruning dataplane.
 * Packet format (Figure 4): fid(16) seq(32) n(8) flags(8) values(n x 64).
 */

header_type cheetah_t {{
    fields {{
        fid    : 16;
        seq    : 32;
        n      : 8;
        flags  : 8;
{value_fields}
    }}
}}

header cheetah_t cheetah;

parser parse_cheetah {{
    extract(cheetah);
    return ingress;
}}

header_type meta_t {{
    fields {{
        prune     : 1;
        row       : 32;
        carry     : 64;
        scratch   : 64;
    }}
}}

metadata meta_t meta;
'''

_PRUNE_TABLE = '''
action do_prune() { drop(); }
action do_forward() { }

table prune_decision {
    reads { meta.prune : exact; }
    actions { do_prune; do_forward; }
    size : 2;
}
'''


def _value_fields(count: int) -> str:
    return "\n".join(f"        value{i} : 64;" for i in range(count))


def _register(name: str, width: int, size: int) -> str:
    return (
        f"register {name} {{\n"
        f"    width : {width};\n"
        f"    instance_count : {size};\n"
        f"}}\n"
    )


def _blackbox(name: str, register: str, body: str) -> str:
    return (
        f"blackbox stateful_alu {name} {{\n"
        f"    reg : {register};\n"
        f"{body}"
        f"}}\n"
    )


def emit_distinct(pruner: DistinctPruner) -> List[str]:
    d, w = pruner.matrix.rows, pruner.matrix.width
    parts = [f"/* DISTINCT: d={d} rows x w={w} columns, "
             f"{pruner.matrix.policy.value.upper()} eviction. */"]
    for column in range(w):
        parts.append(_register(f"distinct_col{column}", 64, d))
        parts.append(_blackbox(
            f"distinct_exchange{column}", f"distinct_col{column}",
            "    condition_lo : register_lo == meta.carry;\n"
            "    update_lo_1_value : meta.carry;   /* rolling replace */\n"
            "    output_value : register_lo;       /* evicted -> carry */\n"
        ))
        parts.append(
            f"action check_col{column}() {{\n"
            f"    distinct_exchange{column}.execute(meta.row);\n"
            f"}}\n"
        )
    return parts


def emit_topn(pruner) -> List[str]:
    if isinstance(pruner, TopNDeterministic):
        parts = [f"/* Deterministic TOP-N: N={pruner.n}, "
                 f"w={pruner.w} power-of-two thresholds. */"]
        parts.append(_register("topn_warmup_count", 64, 1))
        parts.append(_register("topn_t0_min", 64, 1))
        for i in range(pruner.w):
            parts.append(_register(f"topn_counter{i}", 64, 1))
            parts.append(_blackbox(
                f"topn_guard{i}", f"topn_counter{i}",
                f"    /* t_{i} = t0 << {i}; count entries >= t_{i} */\n"
                "    condition_lo : cheetah.value0 >= meta.scratch;\n"
                "    update_lo_1_value : register_lo + 1;\n"
                "    output_value : register_lo;\n"
            ))
        return parts
    d, w = pruner.matrix.rows, pruner.matrix.width
    parts = [f"/* Randomized TOP-N: N={pruner.n}, d={d} x w={w} "
             "rolling-minimum matrix. */"]
    for column in range(w):
        parts.append(_register(f"topn_col{column}", 64, d))
        parts.append(_blackbox(
            f"topn_swap{column}", f"topn_col{column}",
            "    condition_lo : meta.carry > register_lo;\n"
            "    update_lo_1_value : meta.carry;   /* conditional swap */\n"
            "    output_value : register_lo;\n"
        ))
    return parts


def emit_groupby(pruner: GroupByPruner) -> List[str]:
    parts = [f"/* {pruner.aggregate.value.upper()} GROUP BY: "
             f"d={pruner.rows} x w={pruner.width} "
             "(fingerprint|best) slots. */"]
    for column in range(pruner.width):
        parts.append(_register(f"groupby_slot{column}", 64, pruner.rows))
        parts.append(_blackbox(
            f"groupby_update{column}", f"groupby_slot{column}",
            "    /* hi 32b: group fingerprint, lo 32b: best value */\n"
            "    condition_lo : register_hi == meta.scratch;\n"
            "    update_lo_1_value : cheetah.value1;\n"
            "    output_value : register_lo;\n"
        ))
    return parts


def emit_join(pruner: JoinPruner) -> List[str]:
    words = pruner.size_bits // 64
    kind = "register Bloom" if pruner.kind is FilterKind.REGISTER_BLOOM \
        else "classic Bloom"
    parts = [f"/* JOIN: two {kind} filters, M={pruner.size_bits} bits, "
             f"H={pruner.hashes}. */"]
    for side in ("a", "b"):
        parts.append(_register(f"join_filter_{side}", 64, words))
        parts.append(_blackbox(
            f"join_membership_{side}", f"join_filter_{side}",
            "    condition_lo : (register_lo & meta.scratch) == "
            "meta.scratch;\n"
            "    update_lo_1_value : register_lo | meta.scratch;\n"
            "    output_value : condition_lo;\n"
        ))
    return parts


def emit_having(pruner: HavingPruner) -> List[str]:
    parts = [f"/* HAVING {pruner.aggregate.value}(x) > {pruner.threshold}: "
             f"Count-Min {pruner.depth} x {pruner.width}. */"]
    for row in range(pruner.depth):
        parts.append(_register(f"cm_row{row}", 64, pruner.width))
        parts.append(_blackbox(
            f"cm_update{row}", f"cm_row{row}",
            "    update_lo_1_value : register_lo + cheetah.value1;\n"
            "    output_value : register_lo;     /* running min in meta */\n"
        ))
    return parts


def emit_skyline(pruner: SkylinePruner) -> List[str]:
    parts = [f"/* SKYLINE: D={pruner.dimensions} dims, w={pruner.width} "
             f"stored points, {pruner.projection.value} projection. */"]
    if pruner.projection is Projection.APH:
        parts.append(
            "table aph_log_lookup {\n"
            "    reads { meta.scratch : exact; }\n"
            "    actions { set_log_value; }\n"
            "    size : 65536;                   /* 2^16 log table */\n"
            "}\n"
        )
        parts.append(
            "table aph_msb {\n"
            "    reads { cheetah.value0 : ternary; }\n"
            "    actions { set_msb; }\n"
            f"    size : {64 * pruner.dimensions};\n"
            "}\n"
        )
    for point in range(pruner.width):
        parts.append(_register(f"skyline_score{point}", 64, 1))
        parts.append(_register(f"skyline_point{point}", 64,
                               pruner.dimensions))
    return parts


def emit_filter(pruner: FilterPruner) -> List[str]:
    parts = ["/* Filtering: per-predicate compare ALUs + truth table. */"]
    parts.append(
        "table predicate_truth {\n"
        "    reads { meta.scratch : exact;     /* predicate bit vector */ }\n"
        "    actions { set_prune_bit; clear_prune_bit; }\n"
        "    size : 256;\n"
        "}\n"
    )
    return parts


def generate_p4(pruner: PruningAlgorithm, max_values: int = 4) -> str:
    """Emit a P4-style program for ``pruner``.

    Raises ``TypeError`` for pruner types no operator builds.
    """
    # The operator table names this module's emitters, so it is
    # imported here rather than at the top.
    from repro.switch.operators import OPERATORS

    for operator in OPERATORS.values():
        if isinstance(pruner, operator.pruners):
            body = operator.emit(pruner)
            break
    else:
        raise TypeError(
            f"no P4 generator for {type(pruner).__name__}"
        )
    usage = pruner.resources()
    banner = (
        f"/* Resource accounting (Table 2): {usage.describe()} */\n"
    )
    header = _HEADER.format(value_fields=_value_fields(max_values))
    return "\n".join([header, banner, *body, _PRUNE_TABLE])
