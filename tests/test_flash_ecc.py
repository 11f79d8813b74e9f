"""Tests for the SECDED error-correcting code."""

import pytest
from hypothesis import given, strategies as st

from repro.flash import ecc
from repro.flash.ecc import UncorrectableError

WORDS = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestWordCodec:
    def test_clean_word_decodes_unchanged(self):
        data = 0xDEADBEEF12345678
        parity = ecc.encode_word(data)
        decoded, n = ecc.decode_word(data, parity)
        assert decoded == data
        assert n == 0

    @given(WORDS, st.integers(min_value=0, max_value=63))
    def test_any_single_data_bit_corrected(self, data, bit):
        parity = ecc.encode_word(data)
        corrupted = data ^ (1 << bit)
        decoded, n = ecc.decode_word(corrupted, parity)
        assert decoded == data
        assert n == 1

    @given(WORDS, st.integers(min_value=0, max_value=7))
    def test_any_single_parity_bit_flip_harmless(self, data, pbit):
        parity = ecc.encode_word(data)
        decoded, n = ecc.decode_word(data, parity ^ (1 << pbit))
        assert decoded == data
        assert n == 1

    @given(WORDS, st.integers(min_value=0, max_value=63),
           st.integers(min_value=0, max_value=63))
    def test_double_data_error_detected(self, data, bit1, bit2):
        if bit1 == bit2:
            return
        parity = ecc.encode_word(data)
        corrupted = data ^ (1 << bit1) ^ (1 << bit2)
        with pytest.raises(UncorrectableError):
            ecc.decode_word(corrupted, parity)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ecc.encode_word(1 << 64)
        with pytest.raises(ValueError):
            ecc.decode_word(1 << 64, 0)
        with pytest.raises(ValueError):
            ecc.decode_word(0, 256)


class TestPageCodec:
    def test_parity_overhead_is_one_byte_per_word(self):
        assert len(ecc.encode_page(bytes(8192))) == 1024

    def test_parity_requires_word_multiple(self):
        with pytest.raises(ValueError):
            ecc.encode_page(bytes(100))

    def test_page_roundtrip_clean(self):
        data = bytes(range(256)) * 4  # 1024 bytes
        parity = ecc.encode_page(data)
        assert len(parity) == 128
        decoded, n = ecc.decode_page(data, parity)
        assert decoded == data
        assert n == 0

    def test_page_single_bit_in_each_of_two_words_corrected(self):
        data = bytearray(64)
        parity = ecc.encode_page(bytes(data))
        corrupted = bytearray(data)
        corrupted[0] ^= 0x01      # word 0
        corrupted[17] ^= 0x80     # word 2
        decoded, n = ecc.decode_page(bytes(corrupted), parity)
        assert decoded == bytes(data)
        assert n == 2

    def test_page_double_error_in_one_word_raises(self):
        data = bytes(64)
        parity = ecc.encode_page(data)
        corrupted = bytearray(data)
        corrupted[8] ^= 0x03  # two bits in word 1
        with pytest.raises(UncorrectableError):
            ecc.decode_page(bytes(corrupted), parity)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ecc.decode_page(bytes(16), bytes(1))
        with pytest.raises(ValueError):
            ecc.encode_page(bytes(12))

    @given(st.binary(min_size=8, max_size=64).filter(lambda b: len(b) % 8 == 0),
           st.data())
    def test_page_any_single_flip_corrected(self, data, draw):
        parity = ecc.encode_page(data)
        bit = draw.draw(st.integers(min_value=0, max_value=len(data) * 8 - 1))
        corrupted = bytearray(data)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        decoded, n = ecc.decode_page(bytes(corrupted), parity)
        assert decoded == data
        assert n == 1
