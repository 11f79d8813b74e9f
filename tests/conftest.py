"""Shared test fixtures."""

import collections

import pytest

from repro.flash import ecc
from repro.flash.chip import FlashChip


@pytest.fixture
def chip_ops(monkeypatch):
    """Completed NAND operations, counted by kind (``"read"``,
    ``"program"``, ``"erase"``) over every chip the test builds."""
    counts = collections.Counter()
    for kind in ("read", "program", "erase"):
        def counted(self, *args, _op=getattr(FlashChip, kind), _kind=kind):
            result = yield from _op(self, *args)
            counts[_kind] += 1
            return result
        monkeypatch.setattr(FlashChip, kind, counted)
    return counts


@pytest.fixture
def ecc_decodes(monkeypatch):
    """The corrected-bit count of every ``ecc.decode_page`` call (the
    card decodes only reads that took a bit flip)."""
    counts = []
    decode = ecc.decode_page

    def counting_decode(data, parity):
        data, corrected = decode(data, parity)
        counts.append(corrected)
        return data, corrected

    monkeypatch.setattr(ecc, "decode_page", counting_decode)
    return counts
