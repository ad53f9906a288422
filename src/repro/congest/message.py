"""Message payloads and CONGEST bit accounting.

A payload is a small mapping from short string field names to scalar values
(``bool``, ``int``, ``float`` or short ``str``).  The paper's algorithms only
ever exchange packing values, weights and membership flags, all of which are
encodable in ``O(log n)`` bits: a packing value is always of the form
``(1 + eps)^i * tau_v / (Delta + 1)`` and is therefore determined by the
integer ``i`` together with the integer ``tau_v`` (both ``O(log n)`` bits for
polynomially bounded weights).  The simulator transmits the floating point
value for convenience but *accounts* for it as two machine words of
``ceil(log2(n + 1))`` bits, which keeps the bandwidth check meaningful
without forcing every algorithm to hand-encode integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

__all__ = ["Broadcast", "Payload", "estimate_payload_bits", "word_size_bits"]

Scalar = Union[bool, int, float, str, None]
Payload = Mapping[str, Scalar]


@dataclass(frozen=True)
class Broadcast:
    """Wrapper meaning "send this same payload to every neighbor".

    Broadcasting the same ``O(log n)``-bit message to all neighbors is
    allowed in CONGEST (each edge still carries only that one message).
    """

    payload: Payload


def word_size_bits(n: int) -> int:
    """Return ``ceil(log2(n + 1))``, the bit width of a node identifier."""
    return max(1, math.ceil(math.log2(n + 1)))


def estimate_payload_bits(payload: Payload, n: int) -> int:
    """Estimate how many bits ``payload`` needs on the wire.

    * ``bool`` and ``None``: 1 bit.
    * ``int``: its two's-complement bit length (at least 1).
    * ``float``: two identifier words (see module docstring).
    * ``str``: 6 bits per character (field names are not counted; a real
      implementation would fix the message format statically).
    """
    return _payload_bits(payload, word_size_bits(n))


def _payload_bits(payload: Payload, word: int) -> int:
    """:func:`estimate_payload_bits` with the identifier width ``word``
    already computed: the engines send every message of a run under one
    ``n``, so they compute ``word_size_bits(n)`` once per run."""
    bits = 0
    for value in payload.values():
        if value is None or isinstance(value, bool):
            bits += 1
        elif isinstance(value, int):
            bits += max(1, value.bit_length() + 1)
        elif isinstance(value, float):
            bits += 2 * word
        elif isinstance(value, str):
            bits += 6 * len(value)
        else:
            raise TypeError(
                f"payload field of unsupported type {type(value).__name__}; "
                "only bool/int/float/str/None scalars may be sent"
            )
    return bits
