"""Pinned decisions and state of the switch-register structures.

``tests/data/sparse_state_golden.json`` was generated by :func:`snapshot`
while the Bloom filters still held a dense M-bit array and the d x w
matrices a list of ``d`` rows.  The structures now store only the bits
and rows a query touches; this test proves that representation change
moved no decision, no stored value and no drain order.  Every stream
uses small ``M`` / ``d`` so rows collide, rows fill up and evict, and
each structure is cleared or reset and then reused.

Do not regenerate the golden file to make this test pass: a mismatch
means the representation changed behaviour.
"""

import hashlib
import json
import random
from pathlib import Path

from repro.core.groupby import (
    GroupAggregate,
    GroupByPruner,
    GroupBySumAggregator,
)
from repro.sketches.bloom import BloomFilter, RegisterBloomFilter
from repro.sketches.cache_matrix import (
    CacheMatrix,
    EvictionPolicy,
    RollingMinMatrix,
)

GOLDEN = Path(__file__).parent / "data" / "sparse_state_golden.json"


def _digest(decisions):
    return hashlib.sha256(bytes(int(d) for d in decisions)).hexdigest()


def _chunks(values, size=37):
    return [values[i:i + size] for i in range(0, len(values), size)]


def _int_stream(seed, count, domain):
    rng = random.Random(seed)
    return [rng.randrange(domain) for _ in range(count)]


def _str_stream(seed, count, domain):
    return [f"k{v}" for v in _int_stream(seed, count, domain)]


def _bloom_record(make, values):
    """Scalar and batch probe-then-insert runs, then clear and reuse."""
    scalar, batch = make(), make()
    scalar_decisions, batch_decisions = [], []
    for phase in range(2):
        for value in values:
            scalar_decisions.append(value in scalar)
            scalar.add(value)
        for chunk in _chunks(values):
            batch_decisions.extend(batch.contains_batch(chunk))
            batch.add_batch(chunk)
        fill = [scalar.fill_ratio(), batch.fill_ratio()]
        if phase == 0:
            first_fill = fill
            scalar.clear()
            batch.clear()
            values = values[::-1]
    return {
        "scalar_sha256": _digest(scalar_decisions),
        "batch_sha256": _digest(batch_decisions),
        "fill_ratio_before_clear": first_fill,
        "fill_ratio": fill,
    }


def _bloom_records():
    ints = _int_stream(1, 400, 5000)
    strs = _str_stream(2, 300, 4000)
    out = {}
    for name, make in (
        ("bf", lambda: BloomFilter(2048, hashes=3, seed=7)),
        ("rbf", lambda: RegisterBloomFilter(2048, hashes=3, seed=7)),
    ):
        out[f"{name}_int"] = _bloom_record(make, ints)
        out[f"{name}_str"] = _bloom_record(make, strs)
    return out


def _cache_record(policy, values):
    scalar = CacheMatrix(rows=8, width=3, policy=policy, seed=5)
    batch = CacheMatrix(rows=8, width=3, policy=policy, seed=5)
    decisions = [scalar.contains_or_insert(v) for v in values]
    batch_decisions = []
    for chunk in _chunks(values):
        batch_decisions.extend(batch.contains_or_insert_batch(chunk))
    domain = sorted(set(values), key=str)
    record = {
        "scalar_sha256": _digest(decisions),
        "batch_sha256": _digest(batch_decisions),
        "occupancy": [scalar.occupancy(), batch.occupancy()],
        "stats": [scalar.hits, scalar.misses, batch.hits, batch.misses],
        "cached": _digest(v in scalar for v in domain),
    }
    scalar.clear()
    record["occupancy_after_clear"] = scalar.occupancy()
    reuse = [scalar.contains_or_insert(v) for v in values[::-1]]
    record["reuse_sha256"] = _digest(reuse)
    record["reuse_occupancy"] = scalar.occupancy()
    return record


def _rolling_record(values):
    scalar = RollingMinMatrix(rows=6, width=3, seed=9)
    batch = RollingMinMatrix(rows=6, width=3, seed=9)
    decisions = [scalar.offer(v) for v in values]
    batch_decisions = []
    for chunk in _chunks(values):
        batch_decisions.extend(batch.offer_batch(chunk))
    rows = [scalar.row_contents(i) for i in range(scalar.rows)]
    record = {
        "scalar_sha256": _digest(decisions),
        "batch_sha256": _digest(batch_decisions),
        "occupancy": sum(len(row) for row in rows),
        "rows": rows[:3],
        "batch_rows_match": rows == [batch.row_contents(i)
                                     for i in range(batch.rows)],
    }
    scalar.clear()
    record["rows_after_clear"] = [scalar.row_contents(i) for i in range(3)]
    reuse = [scalar.offer(v) for v in values[:50]]
    record["reuse_sha256"] = _digest(reuse)
    record["reuse_rows"] = [scalar.row_contents(i) for i in range(3)]
    return record


def _matrix_records():
    keys = _int_stream(3, 500, 60) + _str_stream(4, 200, 30)
    rng = random.Random(6)
    # Floats with ties, so equal-value pruning is exercised too.
    values = [float(rng.randrange(200)) / 4 for _ in range(600)]
    return {
        "cache_lru": _cache_record(EvictionPolicy.LRU, keys),
        "cache_fifo": _cache_record(EvictionPolicy.FIFO, keys),
        "rolling_min": _rolling_record(values),
    }


def _groupby_record(aggregate, entries):
    scalar = GroupByPruner(rows=4, width=3, aggregate=aggregate, seed=2)
    batch = GroupByPruner(rows=4, width=3, aggregate=aggregate, seed=2)
    decisions = [scalar.offer(e) for e in entries]
    batch_decisions = []
    for chunk in _chunks(entries):
        batch_decisions.extend(batch.offer_batch(chunk))
    record = {
        "scalar_sha256": _digest(decisions),
        "batch_sha256": _digest(batch_decisions),
        "tracked_groups": scalar.tracked_groups(),
        "current_best": [[k, v] for k, v in scalar.current_best().items()],
        "batch_best_match": (list(scalar.current_best().items())
                             == list(batch.current_best().items())),
    }
    scalar.reset()
    record["best_after_reset"] = list(scalar.current_best().items())
    reuse = [scalar.offer(e) for e in entries[::-1]]
    record["reuse_sha256"] = _digest(reuse)
    record["reuse_best"] = [[k, v] for k, v in scalar.current_best().items()]
    return record


def _sum_record(count_mode, entries):
    agg = GroupBySumAggregator(rows=4, width=3, count_mode=count_mode,
                               seed=2)
    evicted = [agg.offer(k, a) for k, a in entries]
    record = {
        "evicted": [list(e) for e in evicted if e is not None],
        "absorbed": agg.absorbed,
        "drain": [list(p) for p in agg.drain()],
        "drain_again": agg.drain(),
    }
    evicted = [agg.offer(k, a) for k, a in entries[:40]]
    record["reuse_evicted"] = [list(e) for e in evicted if e is not None]
    record["reuse_drain"] = [list(p) for p in agg.drain()]
    return record


def _groupby_records():
    rng = random.Random(8)
    entries = [(rng.randrange(30), float(rng.randrange(100)))
               for _ in range(400)]
    entries += [(f"g{rng.randrange(10)}", float(rng.randrange(100)))
                for _ in range(100)]
    return {
        "groupby_max": _groupby_record(GroupAggregate.MAX, entries),
        "groupby_min": _groupby_record(GroupAggregate.MIN, entries),
        "sum": _sum_record(False, entries),
        "count": _sum_record(True, entries),
    }


def snapshot():
    """Every pinned record, in the golden file's JSON shape."""
    return json.loads(json.dumps({
        "bloom": _bloom_records(),
        "matrix": _matrix_records(),
        "groupby": _groupby_records(),
    }))


def test_snapshot_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    current = snapshot()
    for section in golden:
        for name, record in golden[section].items():
            assert current[section][name] == record, (section, name)
    assert current == golden


def test_streams_exercise_collisions_eviction_and_reuse():
    """The golden streams are not trivially easy: rows overflowed,
    filters saturated partly, and the aggregator evicted."""
    golden = json.loads(GOLDEN.read_text())
    for name in ("bf_int", "rbf_int"):
        assert 0.3 < golden["bloom"][name]["fill_ratio"][0] < 1.0
    for name in ("cache_lru", "cache_fifo"):
        record = golden["matrix"][name]
        assert record["occupancy"][0] == 8 * 3
        assert record["occupancy_after_clear"] == 0
    assert golden["matrix"]["rolling_min"]["occupancy"] == 6 * 3
    assert golden["matrix"]["rolling_min"]["batch_rows_match"] is True
    assert golden["groupby"]["groupby_max"]["tracked_groups"] == 4 * 3
    assert golden["groupby"]["groupby_max"]["best_after_reset"] == []
    assert len(golden["groupby"]["sum"]["evicted"]) > 50
    assert golden["groupby"]["sum"]["drain_again"] == []
