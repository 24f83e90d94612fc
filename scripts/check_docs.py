#!/usr/bin/env python3
"""Docs CI checks: run doctests and verify markdown links resolve.

Usage::

    python scripts/check_docs.py

Four checks, all over the repository this script lives in:

1. **Doctests** — every module under ``src/repro`` whose source contains
   a ``>>>`` example is imported and run through :mod:`doctest`.
2. **Links** — every relative markdown link in ``README.md``,
   ``docs/*.md``, and the other top-level ``*.md`` files must point at
   an existing file (fragments and external ``http(s)``/``mailto``
   links are skipped).
3. **Results freshness** — ``docs/RESULTS.md`` must match what
   ``scripts/render_results.py`` renders from the checked-in
   ``results/BENCH_*.json`` files.
4. **CLI flags** — every ``--flag`` in a backticked ``repro <subcommand>
   …`` command (inline code spans and fenced code-block lines) in
   ``README.md`` and ``docs/*.md`` must be an option of that
   subcommand's parser in :mod:`repro.cli`.

Exits non-zero on any failure; CI runs this as the ``docs`` job.
"""

from __future__ import annotations

import doctest
import importlib
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

#: [text](target) — target captured; images (![...]) match too.
_LINK = re.compile(r"\]\(([^)\s]+)\)")

#: Inline code span; fenced blocks are read line by line instead.
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
#: ``repro <subcommand>`` and the rest of that shell command.
_REPRO_COMMAND = re.compile(r"(?<![\w./-])repro\s+([a-z][\w-]*)(.*)")
_FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")
#: Where one shell command ends and the next begins.
_COMMAND_END = re.compile(r"\s(?:#|&&|\|\|?|;|>)")


def doctest_modules() -> list:
    """Dotted names of repro modules containing ``>>>`` examples."""
    names = []
    for path in sorted((SRC_ROOT / "repro").rglob("*.py")):
        if ">>>" in path.read_text(encoding="utf-8"):
            relative = path.relative_to(SRC_ROOT).with_suffix("")
            parts = list(relative.parts)
            if parts[-1] == "__init__":
                parts.pop()
            names.append(".".join(parts))
    return names


def run_doctests() -> int:
    failures = 0
    for name in doctest_modules():
        module = importlib.import_module(name)
        result = doctest.testmod(module, verbose=False)
        status = "ok" if result.failed == 0 else "FAIL"
        print(f"doctest {name}: {result.attempted} examples, "
              f"{result.failed} failures [{status}]")
        failures += result.failed
    return failures


def markdown_files() -> list:
    files = sorted(REPO_ROOT.glob("*.md"))
    files += sorted((REPO_ROOT / "docs").glob("*.md"))
    return files


def check_links() -> int:
    failures = 0
    for md in markdown_files():
        text = md.read_text(encoding="utf-8")
        for target in _LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (md.parent / path).resolve()
            if not resolved.exists():
                print(f"BROKEN LINK in {md.relative_to(REPO_ROOT)}: "
                      f"{target}")
                failures += 1
    print(f"links: checked {len(markdown_files())} markdown files, "
          f"{failures} broken")
    return failures


def cli_options() -> dict:
    """Subcommand path (``"serve"``, ``"bench fig11"``) -> the option
    strings its ``repro.cli`` parser takes, nested subcommands
    included."""
    import argparse

    from repro.cli import build_parser

    known = {}

    def walk(parser, path):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    child_path = f"{path} {name}".strip()
                    known[child_path] = set(child._option_string_actions)
                    walk(child, child_path)

    walk(build_parser(), "")
    return known


def doc_commands(text: str) -> list:
    """Backticked text: inline code spans, and fenced code-block lines
    with ``\\`` continuations joined."""
    commands, fenced, pending = [], False, ""
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif fenced:
            pending += line.strip()
            if pending.endswith("\\"):
                pending = pending[:-1]
            else:
                commands.append(pending)
                pending = ""
        else:
            commands += _CODE_SPAN.findall(line)
    return commands


def check_cli_flags(files=None) -> int:
    """Every ``--flag`` of a documented ``repro <subcommand>`` command
    must be an option of that subcommand."""
    known = cli_options()
    files = markdown_docs() if files is None else files
    checked = failures = 0
    for md in files:
        for command in doc_commands(pathlib.Path(md).read_text(
                encoding="utf-8")):
            match = _REPRO_COMMAND.search(command)
            if match is None:
                continue
            checked += 1
            name, rest = match.groups()
            rest = _COMMAND_END.split(rest, 1)[0]
            words = rest.split()
            while words and f"{name} {words[0]}" in known:
                name = f"{name} {words.pop(0)}"
            for flag in _FLAG.findall(rest):
                if name in known and flag in known[name]:
                    continue
                print(f"UNKNOWN FLAG in {md}: `repro {name} … {flag}`")
                failures += 1
    print(f"cli flags: checked {checked} repro commands in {len(files)} "
          f"markdown files, {failures} unknown")
    return failures


def markdown_docs() -> list:
    """The user-facing docs: ``README.md`` and ``docs/*.md``."""
    return ([REPO_ROOT / "README.md"]
            + sorted((REPO_ROOT / "docs").glob("*.md")))


def check_results_freshness() -> int:
    """``docs/RESULTS.md`` must be regenerable byte-for-byte from the
    checked-in bench JSONs (see ``scripts/render_results.py --check``)."""
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    import render_results

    return render_results.main(["--check"])


def main() -> int:
    sys.path.insert(0, str(SRC_ROOT))
    failures = (run_doctests() + check_links() + check_results_freshness()
                + check_cli_flags())
    if failures:
        print(f"docs check FAILED ({failures} problems)")
        return 1
    print("docs check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
