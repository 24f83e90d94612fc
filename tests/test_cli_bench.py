"""``repro bench <name>``: one table, one error path, one pass/fail rule.

Each bench's parser holds only the flags its runner reads, a flag
reaches the runner only when given (so the runner signature is the one
place a default lives), a ``ValueError`` from the runner is a usage
error (exit 2, one stderr line), and a payload check that is not
``True`` fails the bench (exit 1).
"""

import functools
import inspect
import json
from pathlib import Path

import pytest

from repro.bench import runner
from repro.cli import BENCHES, main

RESULTS = Path(__file__).resolve().parent.parent / "results"


@pytest.mark.parametrize("argv, message", [
    (["replay", "--reorder", "-1"], "reorder_window must be >= 0"),
    (["concurrency", "--reorder", "-1"], "reorder_window must be >= 0"),
    (["obs", "--reorder", "-1"], "reorder_window must be >= 0"),
    (["fig5", "--scale", "-1"], "scale must be positive"),
    (["chaos", "--shards", "1"], "shards must be >= 2"),
    (["fig11", "--batch-size", "0"], "batch_size must be >= 1"),
    (["e2e", "--loss", "1.5"], "loss_rate must be in [0, 1)"),
    (["load", "--rows", "10"], "rows must be >= 20"),
])
def test_bad_input_is_one_line_and_exit_2(argv, message, capsys):
    assert main(["bench"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro bench: ")
    assert message in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["e2e", "--congestion", "aimd"],
    ["fig11", "--loss", "0.1"],
    ["qos", "--policy", "fifo"],
    ["congestion", "--queue-capacity", "4"],
    ["fig5", "--rows", "100"],
])
def test_a_flag_the_runner_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench"] + argv)
    assert exit_info.value.code == 2
    assert argv[1] in capsys.readouterr().err


def _record_calls(monkeypatch, runner_name, result=None):
    """Replace a runner with a recorder that keeps its signature and
    docstring (the parser reads both) and raises ``ValueError("stop")``
    unless given a payload to return."""
    calls = []

    @functools.wraps(getattr(runner, runner_name))
    def fake(**kwargs):
        calls.append(kwargs)
        if result is None:
            raise ValueError("stop")
        return result

    monkeypatch.setattr(runner, runner_name, fake)
    return calls


@pytest.mark.parametrize("name", sorted(BENCHES))
def test_no_flags_means_the_runner_defaults(name, monkeypatch, capsys):
    calls = _record_calls(monkeypatch, BENCHES[name][0])
    assert main(["bench", name]) == 2
    assert calls == [{}]
    assert capsys.readouterr().err == "repro bench: stop\n"


def test_given_flags_reach_the_runner_under_their_keywords(monkeypatch):
    calls = _record_calls(monkeypatch, "run_qos_bench")
    main(["bench", "qos", "--rows", "200", "--loss", "0.02",
          "--reorder", "1"])
    assert calls == [{"batch_rows": 200, "loss_rate": 0.02,
                      "reorder_window": 1}]


def test_help_prints_the_signature_default(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "chaos", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    params = inspect.signature(runner.run_chaos_bench).parameters
    for keyword in ("shards", "loss_rate", "kills"):
        assert f"(default: {params[keyword].default})" in out


def _fig5_payload(**checks):
    return {"benchmark": "fig5_completion", "scale": 1e-5, "seed": 0,
            "shards": 1, "wall_seconds": 0.1, "rows": [], **checks}


@pytest.mark.parametrize("checks, code", [
    ({}, 0),
    ({"all_equivalent": True, "decisions_identical": True,
      "exports_identical": True}, 0),
    ({"all_equivalent": False}, 1),
    ({"all_equivalent": None}, 1),
    ({"all_equivalent": True, "decisions_identical": False}, 1),
    ({"exports_identical": False}, 1),
])
def test_one_pass_fail_rule(checks, code, monkeypatch, capsys, tmp_path):
    _record_calls(monkeypatch, "run_fig5_bench", _fig5_payload(**checks))
    assert main(["bench", "fig5", "--results-dir", str(tmp_path)]) == code
    out, err = capsys.readouterr()
    saved = json.loads((tmp_path / "BENCH_fig5.json").read_text())
    assert saved == _fig5_payload(**checks)
    assert ("-> saved" in out) == (code == 0)
    assert ("ERROR" in err) == (code == 1)


def test_chaos_summary_keeps_the_survivor_line(capsys):
    payload = json.loads((RESULTS / "BENCH_chaos.json").read_text())
    BENCHES["chaos"][2](payload)
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith("  survivor equivalence: OK")
