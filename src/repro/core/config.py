"""Theorem-driven (d, w) configuration (§5, Appendix E).

The randomized TOP-N and fingerprinted DISTINCT matrices must be sized so
that, with probability ``1 - delta``, no row overflows with output
entries.  This module turns the paper's closed forms into code:

* :func:`topn_width` — Theorem 2/9's
  ``w = ceil(1.3 ln(d/delta) / ln((d / (N e)) ln(d/delta)))``;
* :func:`optimal_topn_rows` — the Lambert-W space optimum
  ``d = delta * e^{W(N e^2 / delta)}`` minimising ``w * d``;
* :func:`feasible_topn_config` — resolve (d, w) under per-stage memory
  and stage-count constraints, the way the planner provisions a switch.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional


class InfeasibleConfiguration(Exception):
    """No (d, w) setting satisfies the requested constraints."""


def topn_width(rows: int, n: int, delta: float) -> int:
    """Matrix columns ``w`` for TOP-``n`` success probability ``1-delta``
    given ``rows`` (Theorem 2 / Theorem 9).

    The formula is feasible whenever ``(d / (N e)) ln(d/delta) > 1``;
    below that the denominator is non-positive and no finite width works.
    Rounding follows the paper's worked examples (w=16 at d=600, w=5 at
    d=8000, w=19 at d=481 for TOP 1000 at 99.99%), which floor the
    expression.
    """
    _check_common(rows, n, delta)
    log_term = math.log(rows / delta)
    denom = math.log(rows / (n * math.e) * log_term)
    if denom <= 0:
        raise InfeasibleConfiguration(
            f"d={rows} too small relative to N={n}: the Theorem 2 bound "
            "denominator is non-positive"
        )
    return max(1, math.floor(1.3 * log_term / denom))


def optimal_topn_rows(n: int, delta: float) -> int:
    """Space-and-pruning-optimal row count: ``d = delta * e^{W(N e^2/delta)}``.

    Minimising ``w * d`` simultaneously minimises memory and (by
    Theorem 3) the expected unpruned count.  The paper's example: TOP 1000
    at 99.99% gives d=481, w=19.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    w_arg = n * math.e**2 / delta
    d = delta * math.exp(_lambert_w(w_arg))
    return max(1, round(d))


def _lambert_w(x: float) -> float:
    """Principal-branch Lambert W for ``x >= e``: Halley's iteration on
    ``w e^w = x`` from ``ln x - ln ln x``, run to a fixed point."""
    w = math.log(x) - math.log(math.log(x))
    for _ in range(64):
        e_w = math.exp(w)
        f = w * e_w - x
        step = f / (e_w * (w + 1) - (w + 2) * f / (2 * w + 2))
        if w - step == w:
            break
        w -= step
    return w


@dataclasses.dataclass(frozen=True)
class TopNConfig:
    """A resolved randomized-TOP-N configuration."""

    rows: int
    width: int
    n: int
    delta: float

    @property
    def memory_words(self) -> int:
        """64-bit register words consumed (d * w)."""
        return self.rows * self.width


def feasible_topn_config(n: int, delta: float,
                         max_rows: Optional[int] = None,
                         max_width: Optional[int] = None) -> TopNConfig:
    """Resolve (d, w) for TOP-``n`` under optional constraints.

    Resolution order matches §5's discussion: with no constraints, use the
    Lambert-W optimum; with a row cap (per-stage memory), use the cap and
    derive ``w``; if the resulting width exceeds the stage budget, grow
    ``d`` beyond the optimum until the width fits (more rows always means
    fewer columns, Theorem 9), failing if the row cap forbids that.
    """
    if max_rows is None:
        rows = optimal_topn_rows(n, delta)
    else:
        rows = max_rows
    # Grow d until the Theorem 2 expression is feasible (its denominator
    # must be positive).
    while True:
        try:
            width = topn_width(rows, n, delta)
            break
        except InfeasibleConfiguration:
            if max_rows is not None:
                raise InfeasibleConfiguration(
                    f"TOP {n} at delta={delta} is infeasible with "
                    f"d <= {max_rows} rows"
                ) from None
            rows *= 2
            if rows > 1 << 40:
                raise
    if max_width is not None and width > max_width:
        # Grow d until w fits; w is monotone non-increasing in d.
        grown = rows
        while width > max_width:
            grown *= 2
            if max_rows is not None and grown > max_rows:
                raise InfeasibleConfiguration(
                    f"cannot satisfy w <= {max_width} with d <= {max_rows} "
                    f"for TOP {n} at delta={delta}"
                )
            if grown > 1 << 40:
                raise InfeasibleConfiguration(
                    f"w <= {max_width} unreachable for TOP {n} at "
                    f"delta={delta} (d would exceed 2^40)"
                )
            width = topn_width(grown, n, delta)
        rows = grown
    return TopNConfig(rows=rows, width=width, n=n, delta=delta)


def _check_common(rows: int, n: int, delta: float) -> None:
    if rows < 1:
        raise ValueError(f"rows must be positive, got {rows}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
