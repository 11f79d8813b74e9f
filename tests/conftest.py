"""Shared test fixtures."""

import collections

import pytest

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
