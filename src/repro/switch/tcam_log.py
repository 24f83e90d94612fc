"""Approximate logarithms in the data path (Appendix D).

The SKYLINE Approximate Product Heuristic needs a per-point score
``h(x) = prod_i x_i``, but the switch can neither multiply nor take logs.
The paper's trick:

1. use the **TCAM** to find the most significant set bit ``l`` of each
   dimension (32/64 rules for 32/64-bit values),
2. use a static 2^16-entry **match-action table** mapping each 16-bit
   value ``a`` to ``[beta * log2(a)]`` in fixed point,
3. for wide values, look up the 16 bits starting at the MSB and add
   ``beta * (l - 15)`` for the shifted-out bits, and
4. **sum** the per-dimension approximate logs with ordinary ALU adds —
   a monotone stand-in for the product.

:class:`ApproxLog` implements exactly this pipeline, including the rule
and table-entry accounting that feeds Table 2 (``64 * D`` TCAM entries,
``2^16 x 32b`` SRAM).
"""

from __future__ import annotations

import functools
import math
from typing import Sequence, Tuple

from repro.switch.tables import TernaryTable, prefix_rules_for_msb

#: Width of the static log table's index (2^16 entries, Appendix D).
_TABLE_BITS = 16


@functools.lru_cache(maxsize=None)
def _log_table(beta_bits: int) -> Tuple[int, ...]:
    """The static 2^16-entry table ``round(2^beta_bits * log2(a))``.

    Read-only and fixed by ``beta_bits``, so every :class:`ApproxLog`
    shares one (index 0 unused; log2(0) -> 0 sentinel so zero
    dimensions contribute the minimum score).
    """
    beta = 1 << beta_bits
    return (0,) + tuple(round(beta * math.log2(a))
                        for a in range(1, 1 << _TABLE_BITS))


@functools.lru_cache(maxsize=None)
def _np_log_table(beta_bits: int):
    """The read-only numpy copy of :func:`_log_table` (batch path)."""
    import numpy as np

    table = np.asarray(_log_table(beta_bits), dtype=np.int64)
    table.flags.writeable = False
    return table


def msb_index(value: int, width_bits: int = 64) -> int:
    """Most-significant set bit index via TCAM-style prefix rules.

    Mirrors the hardware path (single TCAM lookup); ``value`` must be
    positive — the APH maps 0 to the lowest score before lookup.
    """
    if value <= 0:
        raise ValueError(f"msb_index requires a positive value, got {value}")
    if value >= 1 << width_bits:
        raise ValueError(
            f"value {value} exceeds TCAM key width {width_bits} bits"
        )
    return value.bit_length() - 1


class ApproxLog:
    """Fixed-point approximate log2 via MSB TCAM + 2^16 lookup table.

    Parameters
    ----------
    beta_bits:
        The fixed-point fraction width; the table stores
        ``round(2^beta_bits * log2(a))``.  The paper's example uses
        ``beta = 2^28`` for 32-bit outputs; we default to a smaller
        fraction that still keeps APH ordering errors negligible.
    width_bits:
        Input key width (TCAM rule count per dimension = ``width_bits``).
    """

    TABLE_BITS = _TABLE_BITS

    def __init__(self, beta_bits: int = 20, width_bits: int = 64):
        if not 1 <= beta_bits <= 28:
            raise ValueError(f"beta_bits must be in [1, 28], got {beta_bits}")
        self.beta_bits = beta_bits
        self.width_bits = width_bits
        self.beta = 1 << beta_bits
        self._table = _log_table(beta_bits)
        # TCAM with the MSB classification rules, as installed in hardware.
        self._tcam = TernaryTable("aph_msb", width_bits=width_bits,
                                  max_entries=width_bits)
        for value, mask, bit in prefix_rules_for_msb(width_bits):
            self._tcam.install(value, mask, "set_msb", (bit,),
                               priority=bit)

    @property
    def table_entries(self) -> int:
        """Lookup-table entries (2^16, per Appendix D)."""
        return len(self._table)

    @property
    def tcam_entries_per_dimension(self) -> int:
        """TCAM rules needed per input dimension."""
        return self.width_bits

    def approx_log2(self, value: int) -> int:
        """Fixed-point approximate ``beta * log2(value)``.

        Zero maps to 0 (the minimum possible score contribution), matching
        the hardware's handling of empty dimensions.
        """
        if value < 0:
            raise ValueError(f"approx_log2 requires value >= 0, got {value}")
        if value == 0:
            return 0
        if value < 1 << self.TABLE_BITS:
            return self._table[value]
        entry = self._tcam.lookup(value)
        msb = entry.params[0]
        # Take the 16 bits starting at the MSB: value ~= z' * 2^(msb-15).
        z_prime = value >> (msb - (self.TABLE_BITS - 1))
        return self._table[z_prime] + self.beta * (msb - (self.TABLE_BITS - 1))

    def score(self, point: Sequence[int]) -> int:
        """APH score: sum of per-dimension approximate logs.

        Monotone in every dimension, so it is a valid skyline projection:
        domination implies a lower-or-equal score.
        """
        return sum(self.approx_log2(max(0, int(x))) for x in point)

    def approx_log2_batch(self, values):
        """Vectorized :meth:`approx_log2` over a non-negative int64 array.

        Returns an int64 array of identical fixed-point logs, or ``None``
        when vectorization is unavailable (numpy missing, or values wide
        enough that the exact-exponent extraction would lose bits).
        """
        try:
            import numpy as np
        except ImportError:  # pragma: no cover
            return None
        try:
            values = np.asarray(values, dtype=np.int64)
        except (OverflowError, ValueError):
            return None
        if values.size and int(values.max()) >= 1 << 52:
            return None  # frexp exponents are only exact below 2^52
        table = _np_log_table(self.beta_bits)
        out = np.zeros(values.shape, dtype=np.int64)
        small = values < (1 << self.TABLE_BITS)
        out[small] = table[values[small]]
        big = ~small
        if big.any():
            big_values = values[big]
            # frexp: v = m * 2^e with m in [0.5, 1) => msb = e - 1,
            # exactly what the TCAM prefix rules classify.
            _, exponents = np.frexp(big_values.astype(np.float64))
            msb = exponents.astype(np.int64) - 1
            shift = msb - (self.TABLE_BITS - 1)
            z_prime = big_values >> shift
            out[big] = table[z_prime] + self.beta * shift
        return out

    def relative_error(self, value: int) -> float:
        """Relative error of the approximation vs. exact log2 (test hook)."""
        if value < 2:
            return 0.0
        exact = math.log2(value)
        approx = self.approx_log2(value) / self.beta
        return abs(approx - exact) / exact
