"""Docs health: doctests pass and markdown links resolve.

Runs the same checker CI's ``docs`` job uses (``scripts/check_docs.py``)
so a broken example or link fails tier-1 locally before it fails CI.
"""

import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_check_docs_script_passes():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "check_docs.py")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "docs check OK" in result.stdout


def test_cli_flag_check_rejects_a_bogus_flag(tmp_path):
    """A doc naming a flag the subcommand's parser lacks fails the
    checker; real flags, inline or fenced, pass."""
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    try:
        import check_docs
    finally:
        sys.path.pop(0)
    good = tmp_path / "good.md"
    good.write_text("Run `repro run distinct --loss 0.05 --shards 2`.\n"
                    "```sh\nrepro bench fig11 --rows 6000 \\\n"
                    "    --shards 4   # --not-a-flag in a comment\n```\n")
    bad = tmp_path / "bad.md"
    bad.write_text("Run `repro run distinct --no-such-flag`.\n"
                   "```sh\nrepro serve --tenants 4 \\\n    --bogus 1\n```\n")
    assert check_docs.check_cli_flags([good]) == 0
    assert check_docs.check_cli_flags([bad]) == 2


def test_cli_flag_check_reads_each_bench_parser(tmp_path):
    """``repro bench <name>`` flags are checked against that bench's
    own parser: ``--kills`` belongs to chaos, not e2e."""
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    try:
        import check_docs
    finally:
        sys.path.pop(0)
    good = tmp_path / "good.md"
    good.write_text("Run `repro bench chaos --kills 2 --seed 0` or "
                    "`repro bench <name> --help`.\n")
    bad = tmp_path / "bad.md"
    bad.write_text("Run `repro bench e2e --kills 2`.\n")
    assert check_docs.check_cli_flags([good]) == 0
    assert check_docs.check_cli_flags([bad]) == 1


def test_architecture_docs_exist_and_crosslink():
    docs = REPO_ROOT / "docs"
    architecture = (docs / "ARCHITECTURE.md").read_text()
    wire = (docs / "WIRE_FORMAT.md").read_text()
    readme = (REPO_ROOT / "README.md").read_text()
    assert "ClusterSimulation" in architecture
    assert "WIRE_FORMAT.md" in architecture
    assert "SCHEDULER.md" in architecture
    assert "7.2" in wire and "Q43.20" in wire
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/WIRE_FORMAT.md" in readme
    assert "docs/SCHEDULER.md" in readme
    assert "docs/RESULTS.md" in readme


def test_scheduler_doc_describes_the_serving_model():
    scheduler = (REPO_ROOT / "docs" / "SCHEDULER.md").read_text()
    for topic in ("QueryScheduler", "Admission", "arbitration",
                  "Fairness", "max_slots", "QueryPlan.run"):
        assert topic in scheduler, topic
    # The ASCII diagram shows the shared pack.
    assert "QueryPack" in scheduler and "offer_batch" in scheduler


def test_results_md_regenerates_deterministically(tmp_path):
    """RESULTS.md is a pure function of the checked-in bench JSONs:
    rendering twice gives byte-identical output that matches the file."""
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    try:
        import render_results
    finally:
        sys.path.pop(0)
    first = render_results.render_report()
    second = render_results.render_report()
    assert first == second
    assert (REPO_ROOT / "docs" / "RESULTS.md").read_text() == first
    for section in ("Figure 5", "Figure 11", "End-to-end",
                    "Multi-tenant serving", "provenance"):
        assert section in first, section
