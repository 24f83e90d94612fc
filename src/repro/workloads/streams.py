"""Synthetic streams for the pruning-rate simulations (Figs 10/11).

All generators are seeded and deterministic.  The analysis assumes
random-order streams (arbitrary values, random arrival order), which
:func:`random_order_stream` provides directly.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple


def random_order_stream(length: int, distinct: int,
                        seed: int = 0) -> List[int]:
    """A stream of ``length`` entries over ``distinct`` uniform keys,
    in random order — the Theorem 1/8 setting."""
    if length < 1:
        raise ValueError(f"length must be positive, got {length}")
    if distinct < 1:
        raise ValueError(f"distinct must be positive, got {distinct}")
    rng = random.Random(seed)
    # Guarantee every key appears at least once when length allows, then
    # fill uniformly; shuffle for random order.
    base = list(range(distinct))[:length]
    fill = [rng.randrange(distinct) for _ in range(length - len(base))]
    stream = base + fill
    rng.shuffle(stream)
    return stream


def zipf_keys(length: int, distinct: int, skew: float = 1.1,
              seed: int = 0) -> List[int]:
    """Zipf-distributed keys (heavy hitters), as in real column values
    (userAgent, languageCode).  ``skew`` is the Zipf exponent."""
    if skew <= 0:
        raise ValueError(f"skew must be positive, got {skew}")
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** skew for rank in range(distinct)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    import bisect

    return [
        bisect.bisect_left(cumulative, rng.random()) for _ in range(length)
    ]


def random_points(length: int, dimensions: int = 2,
                  value_range: int = 1 << 16, seed: int = 0,
                  correlated: float = 0.0,
                  value_ranges: Sequence[int] = None) -> List[Tuple[int, ...]]:
    """Uniform D-dimensional integer points for SKYLINE experiments.

    ``value_ranges`` gives per-dimension ranges (the paper's motivating
    case for APH: one dimension 0-255, another 0-65535 — a SUM score is
    then dominated by the wide dimension).  ``correlated > 0`` mixes a
    shared component into all dimensions.
    """
    if not 0.0 <= correlated <= 1.0:
        raise ValueError(f"correlated must be in [0, 1], got {correlated}")
    if value_ranges is None:
        value_ranges = [value_range] * dimensions
    if len(value_ranges) != dimensions:
        raise ValueError(
            f"need {dimensions} ranges, got {len(value_ranges)}"
        )
    rng = random.Random(seed)
    points = []
    for _ in range(length):
        shared = rng.random()
        point = tuple(
            int((correlated * shared + (1 - correlated) * rng.random())
                * r)
            for r in value_ranges
        )
        points.append(point)
    return points


def value_stream(length: int, value_range: int = 1 << 20,
                 seed: int = 0) -> List[int]:
    """Uniform values for TOP-N experiments (random order by nature)."""
    rng = random.Random(seed)
    return [rng.randrange(1, value_range) for _ in range(length)]


def keyed_value_stream(length: int, distinct: int,
                       value_range: int = 1 << 16, skew: float = 1.1,
                       seed: int = 0) -> List[Tuple[int, int]]:
    """(key, value) pairs with Zipf keys — GROUP BY / HAVING workloads."""
    keys = zipf_keys(length, distinct, skew, seed)
    rng = random.Random(seed ^ 0x5A1AD)
    return [(k, rng.randrange(1, value_range)) for k in keys]


def join_key_streams(left: int, right: int, overlap: float = 0.5,
                     key_space: int = 1 << 20,
                     seed: int = 0) -> Tuple[List[int], List[int]]:
    """Two key streams whose distinct-key sets overlap by ``overlap``."""
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must be in [0, 1], got {overlap}")
    rng = random.Random(seed)
    left_keys = [
        rng.randrange(key_space) if rng.random() < overlap
        else key_space + rng.randrange(key_space)
        for _ in range(left)
    ]
    right_keys = [
        rng.randrange(key_space) if rng.random() < overlap
        else 2 * key_space + rng.randrange(key_space)
        for _ in range(right)
    ]
    return left_keys, right_keys
