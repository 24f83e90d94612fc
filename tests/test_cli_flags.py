"""The ``run``/``serve``/``replay``/``chaos`` flag surface, pinned.

``tests/data/cli_flags_golden.json`` records, per subcommand, the
sorted option strings its parser takes and the namespace a minimal
invocation parses to (every default).  Refactoring how the parser is
assembled must not move a flag or a default.  After an intended flag
change, regenerate the golden with::

    PYTHONPATH=src python tests/test_cli_flags.py

The AST check pins the other half of the contract: each serving knob
flag is declared by one ``add_argument`` call in ``cli.py``, shared by
every subcommand that takes it.
"""

import argparse
import ast
import json
from collections import Counter
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_flags_golden.json"

#: Subcommand -> the shortest argv it parses.
MINIMAL_ARGV = {
    "run": ["run", "fig10a"],
    "serve": ["serve"],
    "replay": ["replay"],
    "chaos": ["chaos", "distinct"],
}

#: Flags that carry one serving knob (transport, slots/policy,
#: observability exports); each must be declared once in ``cli.py``.
#: Per-command flags such as ``--rows`` (four defaults) or ``--gen``
#: (a switch on ``chaos``, a choice on ``replay``) are declared where
#: their command is built.
KNOB_FLAGS = (
    "--loss", "--reorder", "--shards", "--workers", "--seed",
    "--congestion", "--queue-capacity", "--slots", "--policy",
    "--metrics-out", "--span-out", "--log-level",
)


def _subparsers():
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    raise AssertionError("repro parser has no subcommands")


def surface() -> dict:
    """Per subcommand: sorted option strings and minimal-argv defaults."""
    children = _subparsers()
    return {
        name: {
            "options": sorted(children[name]._option_string_actions),
            "defaults": vars(build_parser().parse_args(argv)),
        }
        for name, argv in MINIMAL_ARGV.items()
    }


def _render(payload) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def test_parser_matches_the_golden():
    assert _render(surface()) == GOLDEN.read_text()


def _add_argument_flags():
    """Option strings of each literal ``add_argument`` call in cli.py,
    skipping ``profile``'s parser (its ``--shards``/``--seed`` size the
    profiler's own runs, not a serving knob)."""
    tree = ast.parse(Path(repro.cli.__file__).read_text())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
                and not (isinstance(node.func.value, ast.Name)
                         and node.func.value.id == "profile_parser")):
            yield from (arg.value for arg in node.args
                        if isinstance(arg, ast.Constant)
                        and str(arg.value).startswith("--"))


@pytest.mark.parametrize("flag", KNOB_FLAGS)
def test_each_knob_flag_is_declared_once(flag):
    children = _subparsers()
    takers = [name for name in MINIMAL_ARGV
              if flag in children[name]._option_string_actions]
    assert len(takers) >= 3, (flag, takers)
    assert Counter(_add_argument_flags())[flag] == 1


if __name__ == "__main__":
    GOLDEN.write_text(_render(surface()))
    print(f"wrote {GOLDEN}")
