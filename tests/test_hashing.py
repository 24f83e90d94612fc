"""Tests for the seeded hash substrate."""

import math

import pytest

from repro.sketches.hashing import (
    _splitmix64,
    _to_int,
    HashFamily,
    fingerprint_bits,
    hash64,
    row_of,
    stable_shuffle,
)


class TestHash64:
    def test_deterministic(self):
        assert hash64(42, seed=7) == hash64(42, seed=7)

    def test_seed_changes_output(self):
        assert hash64(42, seed=1) != hash64(42, seed=2)

    def test_value_changes_output(self):
        assert hash64(1) != hash64(2)

    def test_64_bit_range(self):
        for value in (0, 1, 2**63, 2**64 - 1, "hello", (1, "a"), 3.14):
            h = hash64(value)
            assert 0 <= h < 2**64

    def test_string_and_bytes_supported(self):
        assert hash64("abc") == hash64("abc")
        assert hash64(b"abc") == hash64(b"abc")
        # str hashes via its UTF-8 bytes
        assert hash64("abc") == hash64(b"abc")

    def test_tuple_hashing_order_sensitive(self):
        assert hash64((1, 2)) != hash64((2, 1))

    def test_negative_int(self):
        assert 0 <= hash64(-5) < 2**64
        assert hash64(-5) != hash64(5)

    def test_float_vs_int_distinct(self):
        # IEEE bit pattern hashing: 1.0 and 1 are different wire values.
        assert hash64(1.0) != hash64(1)

    def test_unhashable_type_raises(self):
        with pytest.raises(TypeError):
            hash64([1, 2, 3])

    def test_uniformity_rough(self):
        buckets = [0] * 16
        for i in range(16_000):
            buckets[hash64(i) % 16] += 1
        expected = 1000
        for count in buckets:
            assert abs(count - expected) < 150


class TestFingerprintBits:
    def test_width_respected(self):
        for bits in (1, 8, 16, 32, 64):
            fp = fingerprint_bits("value", bits)
            assert 0 <= fp < 2**bits

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            fingerprint_bits("x", 0)
        with pytest.raises(ValueError):
            fingerprint_bits("x", 65)

    def test_collision_rate_small_at_32_bits(self):
        seen = set()
        for i in range(10_000):
            seen.add(fingerprint_bits(i, 32))
        # Expected collisions ~ 1e8/2^33 << 1
        assert len(seen) >= 9_998


class TestHashFamily:
    def test_range(self):
        family = HashFamily(k=3, range_size=100)
        for i in range(3):
            assert 0 <= family("key", i) < 100

    def test_all_returns_k_values(self):
        family = HashFamily(k=5, range_size=1000)
        assert len(family.all("key")) == 5

    def test_functions_differ(self):
        family = HashFamily(k=2, range_size=1 << 30)
        differing = sum(
            1 for i in range(100) if family(i, 0) != family(i, 1)
        )
        assert differing > 95

    @pytest.mark.parametrize("value", [
        0, 1, -1, 12345, -(1 << 63), (1 << 64) - 1, 1 << 64, -(1 << 70),
        True, False, 2.5, "seller", b"raw", (3, "x", -4),
    ])
    def test_premixed_seeds_are_bit_identical(self, value):
        """The seed mix is hoisted out of the per-call path and plain
        ints skip ``_to_int``: same bits as the defining formula."""
        family = HashFamily(k=4, range_size=(1 << 31) - 1, seed=77)
        expected = [
            _splitmix64(_to_int(value) ^ _splitmix64(seed))
            % family.range_size
            for seed in family._seeds
        ]
        assert family.all(value) == expected
        assert [family(value, i) for i in range(4)] == expected
        assert [hash64(value, seed) % family.range_size
                for seed in family._seeds] == expected

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HashFamily(k=0, range_size=10)
        with pytest.raises(ValueError):
            HashFamily(k=1, range_size=0)


class TestRowOf:
    def test_stable(self):
        assert row_of("key", 100) == row_of("key", 100)

    def test_in_range(self):
        for i in range(100):
            assert 0 <= row_of(i, 7) < 7

    def test_invalid_rows(self):
        with pytest.raises(ValueError):
            row_of("x", 0)

    def test_rows_roughly_balanced(self):
        counts = [0] * 10
        for i in range(10_000):
            counts[row_of(i, 10)] += 1
        for count in counts:
            assert abs(count - 1000) < 150


class TestStableShuffle:
    def test_permutation(self):
        items = list(range(50))
        shuffled = stable_shuffle(items, seed=3)
        assert sorted(shuffled) == items
        assert shuffled != items

    def test_deterministic(self):
        items = list(range(50))
        assert stable_shuffle(items, 9) == stable_shuffle(items, 9)

    def test_seed_changes_order(self):
        items = list(range(50))
        assert stable_shuffle(items, 1) != stable_shuffle(items, 2)
