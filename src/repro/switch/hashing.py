"""Hash algorithms for ``field_list_calculation``.

The ECMP use case (Section 8.3.3) rotates the *inputs* of the hash
function at runtime via malleable fields, so the hash implementations
must be deterministic functions of the (width-aware) field bytes --
exactly how the hardware computes them.
"""

from __future__ import annotations

import zlib
from binascii import crc_hqx
from typing import Callable, Dict, Sequence, Tuple

from repro.errors import SwitchError

#: 256-entry bit-reversal table: _REV8[b] is ``b`` with its 8 bits
#: mirrored (the byte-at-a-time core of :func:`reverse_bits32`).
_REV8 = tuple(
    sum(((byte >> bit) & 1) << (7 - bit) for bit in range(8))
    for byte in range(256)
)


def reverse_bits32(value: int) -> int:
    """Mirror the 32 bits of ``value`` (table-driven, byte at a time)."""
    return (
        (_REV8[value & 0xFF] << 24)
        | (_REV8[(value >> 8) & 0xFF] << 16)
        | (_REV8[(value >> 16) & 0xFF] << 8)
        | _REV8[(value >> 24) & 0xFF]
    )


def fields_to_bytes(values: Sequence[Tuple[int, int]]) -> bytes:
    """Serialize ``(value, width_bits)`` pairs to a big-endian byte
    string, byte-padding each field like the Tofino hash units do."""
    out = bytearray()
    for value, width in values:
        nbytes = max(1, (width + 7) // 8)
        out.extend((value & ((1 << width) - 1)).to_bytes(nbytes, "big"))
    return bytes(out)


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE, the P4-14 default hash (poly 0x1021, init
    0xFFFF, no reflection, no final xor) -- exactly what
    ``binascii.crc_hqx`` computes when seeded with 0xFFFF."""
    return crc_hqx(data, 0xFFFF)


def crc32(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF

def crc32_lsb(data: bytes) -> int:
    """Bit-reversed crc32 variant (a second independent hash family)."""
    return reverse_bits32(zlib.crc32(data[::-1]) & 0xFFFFFFFF)


def xor16(data: bytes) -> int:
    result = 0
    padded = data + b"\x00" if len(data) % 2 else data
    for offset in range(0, len(padded), 2):
        result ^= (padded[offset] << 8) | padded[offset + 1]
    return result


def identity(data: bytes) -> int:
    return int.from_bytes(data, "big") if data else 0


def csum16(data: bytes) -> int:
    """Ones-complement 16-bit checksum (IP style)."""
    total = 0
    padded = data + b"\x00" if len(data) % 2 else data
    for offset in range(0, len(padded), 2):
        total += (padded[offset] << 8) | padded[offset + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


ALGORITHMS: Dict[str, Callable[[bytes], int]] = {
    "crc16": crc16,
    "crc32": crc32,
    "crc32_lsb": crc32_lsb,
    "xor16": xor16,
    "identity": identity,
    "csum16": csum16,
}


def compute_hash(
    algorithm: str, values: Sequence[Tuple[int, int]], output_width: int
) -> int:
    """Hash ``(value, width)`` pairs with ``algorithm``, truncated to
    ``output_width`` bits."""
    if algorithm not in ALGORITHMS:
        raise SwitchError(f"unknown hash algorithm {algorithm!r}")
    raw = ALGORITHMS[algorithm](fields_to_bytes(values))
    return raw & ((1 << output_width) - 1)

