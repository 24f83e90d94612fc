"""Seeded 64-bit hash functions.

Tofino pipelines expose CRC-based hash units; any well-mixed seeded hash
family reproduces their statistical behaviour.  We implement a
splitmix64-style finalizer over a seed-perturbed input, which is fast,
dependency-free, and passes the avalanche requirements the analysis in the
paper assumes (uniform row selection, uniform fingerprints).

Everything in this module is deterministic given ``(value, seed)`` so that
experiments are exactly reproducible.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

_MASK64 = (1 << 64) - 1

HashableValue = Union[int, str, bytes, float, tuple]


def _to_int(value: HashableValue) -> int:
    """Map a supported value to a canonical non-negative integer."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value & _MASK64 if value >= 0 else (value + (1 << 64)) & _MASK64
    if isinstance(value, float):
        # Hash the IEEE-754 bit pattern so 1.0 and 1 differ deliberately:
        # column types are fixed per query, so this never mixes in practice.
        import struct

        return int.from_bytes(struct.pack("<d", value), "little")
    if isinstance(value, str):
        value = value.encode("utf-8")
    if isinstance(value, bytes):
        acc = 0xCBF29CE484222325  # FNV-1a offset basis
        for byte in value:
            acc ^= byte
            acc = (acc * 0x100000001B3) & _MASK64
        return acc
    if isinstance(value, tuple):
        acc = 0x9E3779B97F4A7C15
        for item in value:
            acc = (acc * 0xFF51AFD7ED558CCD + _to_int(item)) & _MASK64
        return acc
    raise TypeError(f"unhashable value type for switch hashing: {type(value)!r}")


def _splitmix64(x: int) -> int:
    """The splitmix64 finalizer; a strong 64-bit mixing permutation."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def hash64(value: HashableValue, seed: int = 0) -> int:
    """Return a uniform 64-bit hash of ``value`` under ``seed``.

    Distinct seeds give (empirically) independent functions, which is what
    the Bloom filter / Count-Min analyses require.
    """
    # Plain ints (the common case on the dataplane) skip the isinstance
    # chain: ``& _MASK64`` is _to_int's two's-complement mapping.
    x = value & _MASK64 if type(value) is int else _to_int(value)
    return _splitmix64(x ^ _splitmix64(seed))


def fingerprint_bits(value: HashableValue, bits: int, seed: int = 0x5EED) -> int:
    """Return a ``bits``-wide fingerprint of ``value``.

    Used by wide/multi-column DISTINCT queries (Example #8) where the raw
    key exceeds the number of bits the switch can parse.  Collisions are
    possible and analysed in Theorems 5-7.
    """
    if not 1 <= bits <= 64:
        raise ValueError(f"fingerprint width must be in [1, 64], got {bits}")
    return hash64(value, seed) >> (64 - bits)


class HashFamily:
    """A family of ``k`` seeded hash functions with a common output range.

    Parameters
    ----------
    k:
        Number of functions in the family (e.g. Bloom filter hash count).
    range_size:
        Outputs are uniform over ``[0, range_size)``.
    seed:
        Base seed; function ``i`` uses ``seed + i`` mixed through splitmix.
    """

    def __init__(self, k: int, range_size: int, seed: int = 0):
        if k < 1:
            raise ValueError(f"hash family needs k >= 1, got {k}")
        if range_size < 1:
            raise ValueError(f"range_size must be positive, got {range_size}")
        self.k = k
        self.range_size = range_size
        self.seed = seed
        self._seeds = [_splitmix64(seed + i * 0x9E3779B9) for i in range(k)]
        #: ``hash64``'s seed mix, done once instead of on every call.
        self._mixed = [_splitmix64(s) for s in self._seeds]

    def __call__(self, value: HashableValue, i: int) -> int:
        """Value of the ``i``-th function on ``value``."""
        return hash64(value, self._seeds[i]) % self.range_size

    def all(self, value: HashableValue) -> Sequence[int]:
        """All ``k`` hash values for ``value`` (Bloom insert/query path)."""
        x = value & _MASK64 if type(value) is int else _to_int(value)
        range_size = self.range_size
        return [_splitmix64(x ^ mixed) % range_size
                for mixed in self._mixed]

    def all_batch(self, values):
        """Per-function index arrays for a whole batch of values.

        Returns a list of ``k`` uint64 arrays (one per hash function,
        each of ``len(values)`` indices), bit-identical to calling
        :meth:`all` per value — or ``None`` when the batch cannot be
        vectorized (the caller falls back to the scalar path).
        """
        arr = _as_u64_array(values)
        if arr is None:
            return None
        return [hash64_batch(arr, s) % _np.uint64(self.range_size)
                for s in self._seeds]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashFamily(k={self.k}, range={self.range_size}, seed={self.seed})"


def row_of(value: HashableValue, rows: int, seed: int = 0xD15C) -> int:
    """Deterministic row index in ``[0, rows)`` used by hash-partitioned
    matrices (DISTINCT / GROUP BY) — the same key always lands in the same
    row, which their correctness argument requires."""
    if rows < 1:
        raise ValueError(f"rows must be positive, got {rows}")
    return hash64(value, seed) % rows


def stable_shuffle(items: Iterable, seed: int) -> list:
    """Deterministically shuffle ``items`` (used to build the random-order
    streams the analysis assumes, without consuming global RNG state)."""
    keyed = sorted(enumerate(items), key=lambda p: hash64((seed, p[0])))
    return [item for _, item in keyed]


# ---------------------------------------------------------------------------
# Vectorized (batch) hashing
#
# The batched dataplane amortizes Python dispatch by hashing whole entry
# batches at once.  Every function below is bit-identical to its scalar
# counterpart and returns ``None`` when vectorization is unavailable
# (numpy missing, or values outside the plain-int fast path) so callers
# can fall back to the scalar loop.
# ---------------------------------------------------------------------------

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None


def _as_u64_array(values):
    """Plain-int ``values`` as a uint64 array matching ``_to_int``.

    Returns ``None`` when any element is not exactly ``int`` (bool is
    rejected on purpose: it routes through the scalar path unchanged) or
    when the values do not fit the 64-bit conversions.
    """
    if _np is None:
        return None
    for value in values:
        if type(value) is not int:
            return None
    try:
        return _np.asarray(values, dtype=_np.uint64)
    except (OverflowError, ValueError, TypeError):
        pass
    try:
        # Negative ints: the int64 -> uint64 cast is the same two's
        # complement mapping _to_int applies.
        return _np.asarray(values, dtype=_np.int64).astype(_np.uint64)
    except (OverflowError, ValueError, TypeError):
        return None


def _splitmix64_array(x):
    """:func:`_splitmix64` over a uint64 array (unsigned wraparound)."""
    x = x + _np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> _np.uint64(30))) * _np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _np.uint64(27))) * _np.uint64(0x94D049BB133111EB)
    return x ^ (x >> _np.uint64(31))


def hash64_batch(values, seed: int = 0):
    """Vectorized :func:`hash64` over plain-int values.

    Returns a uint64 array, or ``None`` when the batch cannot be
    vectorized (caller falls back to per-value :func:`hash64`).
    """
    if _np is not None and isinstance(values, _np.ndarray) \
            and values.dtype == _np.uint64:
        arr = values
    else:
        arr = _as_u64_array(values)
    if arr is None:
        return None
    return _splitmix64_array(arr ^ _np.uint64(_splitmix64(seed)))


def rows_of_batch(values, rows: int, seed: int = 0xD15C):
    """Vectorized :func:`row_of`: a list of row indices, or ``None``."""
    hashed = hash64_batch(values, seed)
    if hashed is None:
        return None
    return (hashed % _np.uint64(rows)).tolist()


def fingerprint_bits_batch(values, bits: int, seed: int = 0x5EED):
    """Vectorized :func:`fingerprint_bits`, or ``None``."""
    if not 1 <= bits <= 64:
        raise ValueError(f"fingerprint width must be in [1, 64], got {bits}")
    hashed = hash64_batch(values, seed)
    if hashed is None:
        return None
    return (hashed >> _np.uint64(64 - bits)).tolist()


def sequence_rows_batch(seed, start: int, count: int, rows: int,
                        salt: int = 0x70F1):
    """Rows for arrival sequence numbers ``start .. start+count-1``.

    Bit-identical to ``hash64((seed, sequence), salt) % rows`` per
    arrival — the randomized TOP-N row-selection path.  ``None`` when
    numpy is unavailable.
    """
    if _np is None:
        return None
    mult = 0xFF51AFD7ED558CCD
    acc = (0x9E3779B97F4A7C15 * mult + _to_int(seed)) & _MASK64
    seqs = _np.arange(start, start + count, dtype=_np.uint64)
    mixed = _np.uint64((acc * mult) & _MASK64) + seqs
    hashed = _splitmix64_array(mixed ^ _np.uint64(_splitmix64(salt)))
    return (hashed % _np.uint64(rows)).tolist()
