"""Bit-error-correcting code: extended Hamming SECDED over 64-bit words.

The paper's Artix-7 flash controller presents "a logical error-free access
into flash" by running ECC next to the chips (Section 5.1, Table 1's ECC
Decoder/Encoder rows).  We implement a real single-error-correct /
double-error-detect code so the simulator genuinely corrects the bit
errors the chip model injects, rather than pretending.

Layout: data is processed in 8-byte (64-bit) words; each word gets 8
parity bits (7 Hamming + 1 overall), i.e. a (72, 64) code with 12.5 %
overhead — in the same family as the BCH codes real controllers use.
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = [
    "SECDED_WORD_BYTES",
    "encode_word",
    "decode_word",
    "encode_page",
    "decode_page",
    "UncorrectableError",
]

SECDED_WORD_BYTES = 8
_DATA_BITS = 64
_HAMMING_BITS = 7  # positions 1..127 cover 64 data bits with 7 checks


class UncorrectableError(Exception):
    """A codeword had >=2 bit errors: detected but not correctable."""


def _build_positions() -> List[int]:
    """Codeword bit positions (1-based) that hold data bits.

    In a Hamming code, positions that are powers of two hold parity; all
    other positions hold data, in order.
    """
    positions = []
    pos = 1
    while len(positions) < _DATA_BITS:
        if pos & (pos - 1) != 0:  # not a power of two
            positions.append(pos)
        pos += 1
    return positions


_DATA_POSITIONS = _build_positions()
_PARITY_POSITIONS = [1 << i for i in range(_HAMMING_BITS)]

# Precompute, for each parity bit, the mask of *data-bit indices* it covers.
_PARITY_DATA_MASKS = []
for _p in _PARITY_POSITIONS:
    mask = 0
    for _i, _pos in enumerate(_DATA_POSITIONS):
        if _pos & _p:
            mask |= 1 << _i
    _PARITY_DATA_MASKS.append(mask)

# Map from codeword position -> data bit index (for correction).
_POS_TO_DATA_INDEX = {pos: i for i, pos in enumerate(_DATA_POSITIONS)}


def _parity64(value: int) -> int:
    """Parity (XOR of all bits) of a 64-bit integer."""
    value ^= value >> 32
    value ^= value >> 16
    value ^= value >> 8
    value ^= value >> 4
    value ^= value >> 2
    value ^= value >> 1
    return value & 1


def encode_word(data: int) -> int:
    """Compute the 8 parity bits for a 64-bit data word.

    Returns a byte: bits 0-6 are Hamming checks, bit 7 is overall parity
    of data+checks (the SECDED extension).
    """
    if not 0 <= data < (1 << 64):
        raise ValueError("data word out of 64-bit range")
    parity = 0
    for i, mask in enumerate(_PARITY_DATA_MASKS):
        parity |= _parity64(data & mask) << i
    overall = _parity64(data) ^ _parity64(parity)
    return parity | (overall << 7)


def decode_word(data: int, parity: int) -> Tuple[int, int]:
    """Correct up to one bit error in (data, parity); detect two.

    Returns ``(corrected_data, n_corrected)``.  Raises
    :class:`UncorrectableError` on a detected double error.
    """
    if not 0 <= data < (1 << 64):
        raise ValueError("data word out of 64-bit range")
    if not 0 <= parity < (1 << 8):
        raise ValueError("parity byte out of range")
    stored_hamming = parity & 0x7F
    stored_overall = (parity >> 7) & 1

    syndrome = 0
    for i, mask in enumerate(_PARITY_DATA_MASKS):
        if _parity64(data & mask) != ((stored_hamming >> i) & 1):
            syndrome |= 1 << i
    overall_now = _parity64(data) ^ _parity64(stored_hamming)
    overall_error = overall_now != stored_overall

    if syndrome == 0 and not overall_error:
        return data, 0
    if syndrome == 0 and overall_error:
        # The overall parity bit itself flipped; data is intact.
        return data, 1
    if overall_error:
        # Single error at codeword position `syndrome`.
        if syndrome in _POS_TO_DATA_INDEX:
            data ^= 1 << _POS_TO_DATA_INDEX[syndrome]
        # else: the flipped bit was a parity bit; data is intact.
        return data, 1
    # Non-zero syndrome with clean overall parity => double error.
    raise UncorrectableError(f"double bit error (syndrome {syndrome:#x})")


def encode_page(data: bytes) -> bytes:
    """Parity bytes for a full page (one byte per 64-bit word)."""
    if len(data) % SECDED_WORD_BYTES != 0:
        raise ValueError(
            f"page length {len(data)} not a multiple of {SECDED_WORD_BYTES}")
    out = bytearray(len(data) // SECDED_WORD_BYTES)
    for i in range(len(out)):
        word = int.from_bytes(
            data[i * SECDED_WORD_BYTES:(i + 1) * SECDED_WORD_BYTES],
            "little")
        out[i] = encode_word(word)
    return bytes(out)


def decode_page(data: bytes, parity: bytes) -> Tuple[bytes, int]:
    """Correct a full page; returns (corrected_data, total_bits_corrected).

    Raises :class:`UncorrectableError` if any word has a double error.
    """
    if len(data) != len(parity) * SECDED_WORD_BYTES:
        raise ValueError("data/parity length mismatch")
    corrected = bytearray(data)
    total = 0
    for i, pbyte in enumerate(parity):
        start = i * SECDED_WORD_BYTES
        word = int.from_bytes(data[start:start + SECDED_WORD_BYTES], "little")
        fixed, n = decode_word(word, pbyte)
        if n:
            corrected[start:start + SECDED_WORD_BYTES] = fixed.to_bytes(
                SECDED_WORD_BYTES, "little")
            total += n
    return bytes(corrected), total
