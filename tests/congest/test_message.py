"""Tests for payload bit accounting."""

from __future__ import annotations

import pytest

from repro.congest.message import (
    Broadcast,
    _payload_bits,
    estimate_payload_bits,
    word_size_bits,
)


class TestWordSize:
    def test_small_networks(self):
        assert word_size_bits(1) == 1
        assert word_size_bits(2) == 2
        assert word_size_bits(1000) == 10

    def test_growth_is_logarithmic(self):
        assert word_size_bits(10 ** 6) <= 20


class TestPayloadBits:
    def test_boolean_is_one_bit(self):
        assert estimate_payload_bits({"flag": True}, 100) == 1

    def test_none_is_one_bit(self):
        assert estimate_payload_bits({"nothing": None}, 100) == 1

    def test_integer_uses_bit_length(self):
        assert estimate_payload_bits({"value": 7}, 100) == 4  # 3 bits + sign

    def test_float_is_two_words(self):
        assert estimate_payload_bits({"x": 0.25}, 1000) == 2 * word_size_bits(1000)

    def test_string_costs_per_character(self):
        assert estimate_payload_bits({"s": "ab"}, 100) == 12

    def test_multiple_fields_sum(self):
        single = estimate_payload_bits({"a": True}, 100)
        double = estimate_payload_bits({"a": True, "b": True}, 100)
        assert double == 2 * single

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            estimate_payload_bits({"bad": [1, 2, 3]}, 100)

    def test_empty_payload_is_free(self):
        assert estimate_payload_bits({}, 100) == 0

    @pytest.mark.parametrize("n", [1, 2, 100, 1000, 10 ** 6])
    @pytest.mark.parametrize(
        "payload",
        [
            {"flag": False},
            {"nothing": None},
            {"value": -7, "big": 2 ** 40},
            {"x": 0.25, "y": -3.5},
            {"s": "abc"},
            {"flag": True, "nothing": None, "value": 7, "x": 0.25, "s": "ab"},
        ],
    )
    def test_precomputed_word_matches_public_estimate(self, payload, n):
        # The engines compute the identifier width once per run and call
        # the private form; both must account every payload identically.
        assert _payload_bits(payload, word_size_bits(n)) == estimate_payload_bits(payload, n)


class TestBroadcast:
    def test_broadcast_is_frozen(self):
        message = Broadcast({"x": 1})
        with pytest.raises(AttributeError):
            message.payload = {}

    def test_broadcast_carries_payload(self):
        assert Broadcast({"x": 1}).payload == {"x": 1}
