"""Bloom filters as used by the JOIN pruner (Example #4).

Two variants, matching Table 2's JOIN rows:

* :class:`BloomFilter` ("BF"): a classic M-bit filter with H hash
  functions.  On Tofino this occupies ``H`` stages (one register access per
  stage) when same-stage ALUs cannot share memory, or 2 stages in the
  paper's accounting where they can.
* :class:`RegisterBloomFilter` ("RBF"): a single-stage variant that packs
  the filter into 64-bit register words and sets/tests one bit per word
  per access using ``64 / H``-way word indexing; it trades a slightly
  different false-positive profile for a single pipeline stage.

Both guarantee **no false negatives**, which is what makes JOIN pruning
sound: a pruned key is guaranteed absent from the other table.
"""

from __future__ import annotations

import math
from operator import and_
from typing import Iterable, List, Optional

from repro.sketches.hashing import HashFamily, HashableValue, hash64


class BloomFilter:
    """Classic Bloom filter over ``size_bits`` bits with ``hashes`` functions.

    Models an M-bit register array; stores the indices of its set bits.

    Parameters
    ----------
    size_bits:
        Filter size M in bits.
    hashes:
        Number of hash functions H (paper default: 3).
    seed:
        Seed for the hash family (vary across experiment repetitions).
    """

    def __init__(self, size_bits: int, hashes: int = 3, seed: int = 0):
        if size_bits < 8:
            raise ValueError(f"Bloom filter needs >= 8 bits, got {size_bits}")
        if hashes < 1:
            raise ValueError(f"need >= 1 hash function, got {hashes}")
        self.size_bits = size_bits
        self.hashes = hashes
        self.seed = seed
        self._family = HashFamily(hashes, size_bits, seed)
        self._bits: set = set()
        self._inserted = 0

    def add(self, value: HashableValue) -> None:
        """Insert ``value`` into the filter."""
        self._bits.update(self._family.all(value))
        self._inserted += 1

    def __contains__(self, value: HashableValue) -> bool:
        return self._bits.issuperset(self._family.all(value))

    def update(self, values: Iterable[HashableValue]) -> None:
        """Insert every value in ``values``."""
        for value in values:
            self.add(value)

    def add_batch(self, values) -> None:
        """Vectorized :meth:`add` for a whole batch of keys.

        Hashes the batch at once; final filter state is identical to
        per-value ``add`` calls.
        """
        index_arrays = self._family.all_batch(values)
        if index_arrays is None:
            for value in values:
                self.add(value)
            return
        for idxs in index_arrays:
            self._bits.update(idxs.tolist())
        self._inserted += len(values)

    def contains_batch(self, values) -> List[bool]:
        """Vectorized membership test, identical to ``value in filter``."""
        index_arrays = self._family.all_batch(values)
        if index_arrays is None:
            return [value in self for value in values]
        is_set = self._bits.__contains__
        result = [True] * len(values)
        for idxs in index_arrays:
            result = list(map(and_, result, map(is_set, idxs.tolist())))
        return result

    @property
    def inserted(self) -> int:
        """Number of ``add`` calls (not distinct keys)."""
        return self._inserted

    def fill_ratio(self) -> float:
        """Fraction of set bits; drives the false-positive rate."""
        return len(self._bits) / self.size_bits

    def false_positive_rate(self) -> float:
        """Current theoretical FP rate ``(fill_ratio)^H``."""
        return self.fill_ratio() ** self.hashes

    @staticmethod
    def expected_fp_rate(size_bits: int, hashes: int, items: int) -> float:
        """Closed-form expected FP rate after inserting ``items`` keys."""
        if items == 0:
            return 0.0
        fill = 1.0 - math.exp(-hashes * items / size_bits)
        return fill**hashes

    @staticmethod
    def optimal_hashes(size_bits: int, items: int) -> int:
        """FP-optimal hash count ``(M/n) ln 2`` (>= 1)."""
        if items == 0:
            return 1
        return max(1, round(size_bits / items * math.log(2)))

    def clear(self) -> None:
        """Reset to empty (control-plane register wipe)."""
        self._bits.clear()
        self._inserted = 0

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"BloomFilter(bits={self.size_bits}, H={self.hashes}, "
            f"inserted={self._inserted})"
        )


class RegisterBloomFilter:
    """Single-stage "register Bloom filter" (Table 2's RBF row).

    The filter is organised as an array of 64-bit register words.  An
    element hashes once to a word and derives its ``hashes`` bit positions
    inside that word from further hash bits, so one register access per
    packet suffices — the property that lets the RBF fit in a single
    pipeline stage.  Clustering the bits in one word raises the
    false-positive rate slightly versus a classic BF of equal size, which
    is the BF/RBF gap visible in Figure 10e.

    Models ``size_bits / 64`` register words; stores the non-zero ones.
    """

    WORD_BITS = 64

    def __init__(self, size_bits: int, hashes: int = 3, seed: int = 0):
        if size_bits < self.WORD_BITS:
            raise ValueError(
                f"RBF needs >= {self.WORD_BITS} bits, got {size_bits}"
            )
        if not 1 <= hashes <= self.WORD_BITS:
            raise ValueError(f"hashes must be in [1, 64], got {hashes}")
        self.size_bits = size_bits
        self.hashes = hashes
        self.seed = seed
        self.num_words = size_bits // self.WORD_BITS
        self._words: dict = {}
        self._inserted = 0

    def _positions(self, value: HashableValue) -> tuple:
        h = hash64(value, self.seed)
        word = h % self.num_words
        mask = 0
        rest = h // self.num_words
        for i in range(self.hashes):
            if rest < self.WORD_BITS:
                rest = hash64((value, i), self.seed ^ 0xB10F)
            mask |= 1 << (rest % self.WORD_BITS)
            rest //= self.WORD_BITS
        return word, mask

    def add(self, value: HashableValue) -> None:
        """Insert ``value`` (single register read-modify-write)."""
        word, mask = self._positions(value)
        self._words[word] = self._words.get(word, 0) | mask
        self._inserted += 1

    def __contains__(self, value: HashableValue) -> bool:
        word, mask = self._positions(value)
        return (self._words.get(word, 0) & mask) == mask

    def update(self, values: Iterable[HashableValue]) -> None:
        """Insert every value in ``values``."""
        for value in values:
            self.add(value)

    def add_batch(self, values) -> None:
        """Batched :meth:`add` (the RBF's data-dependent in-word rehash
        keeps position derivation scalar; the loop is hoisted)."""
        words = self._words
        positions = self._positions
        for value in values:
            word, mask = positions(value)
            words[word] = words.get(word, 0) | mask
        self._inserted += len(values)

    def contains_batch(self, values) -> List[bool]:
        """Batched membership test."""
        words = self._words
        positions = self._positions
        out = []
        for value in values:
            word, mask = positions(value)
            out.append((words.get(word, 0) & mask) == mask)
        return out

    @property
    def inserted(self) -> int:
        """Number of ``add`` calls."""
        return self._inserted

    def fill_ratio(self) -> float:
        """Fraction of set bits across all words."""
        set_bits = sum(bin(w).count("1") for w in self._words.values())
        return set_bits / (self.num_words * self.WORD_BITS)

    def clear(self) -> None:
        """Reset to empty."""
        self._words.clear()
        self._inserted = 0

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"RegisterBloomFilter(bits={self.size_bits}, H={self.hashes}, "
            f"inserted={self._inserted})"
        )


def sized_for_fp_rate(items: int, fp_rate: float, hashes: Optional[int] = None,
                      seed: int = 0) -> BloomFilter:
    """Build a :class:`BloomFilter` sized for ``items`` keys at ``fp_rate``.

    Used by the asymmetric JOIN optimization: the small table gets a filter
    with a much lower false-positive rate, improving pruning of the large
    table (§4.3).
    """
    if items < 1:
        raise ValueError(f"items must be positive, got {items}")
    if not 0.0 < fp_rate < 1.0:
        raise ValueError(f"fp_rate must be in (0, 1), got {fp_rate}")
    size_bits = max(8, math.ceil(-items * math.log(fp_rate) / (math.log(2) ** 2)))
    if hashes is None:
        hashes = BloomFilter.optimal_hashes(size_bits, items)
    return BloomFilter(size_bits, hashes, seed)
