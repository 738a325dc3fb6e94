"""``hashing.crc16`` (``binascii.crc_hqx`` seeded with 0xFFFF) must stay
bit-identical to the textbook bit-at-a-time CRC-16/CCITT-FALSE.

ECMP, fabric_lb, the sketch app, and the adversarial address searches
(``find_colliding_addr``/``find_spreading_sport``) all bucket packets
with this hash, so any drift would silently move simulated results.
"""

from __future__ import annotations

import random

from repro.apps.fabric_lb import _hash_bucket
from repro.switch.hashing import ALGORITHMS, compute_hash, crc16


def _bitwise_crc16(data: bytes) -> int:
    """Reference CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, MSB
    first, no reflection, no final xor."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


def test_check_vector():
    # The catalogued check value of CRC-16/CCITT-FALSE.
    assert _bitwise_crc16(b"123456789") == 0x29B1
    assert crc16(b"123456789") == 0x29B1


def test_empty_input_is_the_init_value():
    assert crc16(b"") == _bitwise_crc16(b"") == 0xFFFF


def test_random_strings_match_the_bitwise_oracle():
    rng = random.Random(0x1021)
    for _ in range(10_000):
        data = bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 40)))
        assert crc16(data) == _bitwise_crc16(data), data.hex()


def test_registered_algorithm_is_the_fast_crc16():
    assert ALGORITHMS["crc16"] is crc16


def test_fabric_bucket_hash_matches_oracle():
    # fabric_lb buckets (dstAddr, proto) / (dstAddr, sport) pairs, each
    # field serialized at its 32-bit container width.
    rng = random.Random(7)
    for _ in range(500):
        in1, in2 = rng.getrandbits(32), rng.getrandbits(32)
        data = in1.to_bytes(4, "big") + in2.to_bytes(4, "big")
        expected = _bitwise_crc16(data)
        assert compute_hash("crc16", [(in1, 32), (in2, 32)], 16) == expected
        assert _hash_bucket(in1, in2) == expected % 4
