"""The checked-in deterministic records regenerate byte-for-byte.

CI reruns these benches twice and compares the runs with each other,
which a deterministic change of decisions passes.  Comparing against
``results/`` pins the decisions themselves: any change that moves a
scheduling, pruning or transport decision shows up as a diff here and
must re-record the file on purpose.
"""

from pathlib import Path

import pytest

from repro.cli import main

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: record file -> the exact CLI arguments it was made with.
RECORDS = {
    "BENCH_replay.json": ["bench", "replay", "--seed", "0"],
    "BENCH_chaos.json": ["bench", "chaos", "--seed", "0"],
    "BENCH_congestion.json": ["bench", "congestion", "--seed", "0"],
    "BENCH_qos.json": ["bench", "qos", "--seed", "0",
                       "--loss", "0.02", "--reorder", "1"],
    "table2.txt": ["run", "table2"],
}


@pytest.mark.parametrize("record", sorted(RECORDS))
def test_record_regenerates_identically(record, tmp_path, capsys):
    assert main(RECORDS[record] + ["--results-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    fresh = (tmp_path / record).read_bytes()
    assert fresh == (RESULTS / record).read_bytes(), (
        f"{record} differs from results/{record}")
