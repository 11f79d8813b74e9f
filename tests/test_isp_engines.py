"""Tests for the in-store processor engines (functional + timing)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isp import (
    GraphWalkEngine,
    HammingEngine,
    MPEngine,
    MPStream,
    decode_vertex,
    encode_vertex,
    failure_function,
    hamming_distance,
    mp_search,
)
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestHamming:
    def test_identical_is_zero(self):
        assert hamming_distance(b"abc", b"abc") == 0

    def test_single_bit(self):
        assert hamming_distance(b"\x00", b"\x01") == 1

    def test_all_bits(self):
        assert hamming_distance(b"\x00\x00", b"\xff\xff") == 16

    def test_length_padding(self):
        assert hamming_distance(b"\xff", b"\xff\x0f") == 4

    @given(st.binary(min_size=1, max_size=64), st.binary(min_size=1, max_size=64))
    def test_symmetry(self, a, b):
        assert hamming_distance(a, b) == hamming_distance(b, a)

    @given(st.binary(min_size=1, max_size=64))
    def test_identity(self, a):
        assert hamming_distance(a, a) == 0

    @given(st.binary(min_size=8, max_size=32), st.binary(min_size=8, max_size=32),
           st.binary(min_size=8, max_size=32))
    def test_triangle_inequality(self, a, b, c):
        assert (hamming_distance(a, c)
                <= hamming_distance(a, b) + hamming_distance(b, c))

    def test_engine_runs_with_timing(self, sim):
        engine = HammingEngine(sim, b"\x00" * 100, bytes_per_ns=1.0)

        def proc(sim):
            dist = yield sim.process(engine.run_page(b"\xff" * 100))
            return (dist, sim.now)

        dist, elapsed = sim.run_process(proc(sim))
        assert dist == 800
        assert elapsed == 100


class TestMorrisPratt:
    def test_failure_function_classic(self):
        # "abcabd": borders 0,0,0,1,2,0 — the textbook example.
        assert failure_function(b"abcabd") == [0, 0, 0, 1, 2, 0]

    def test_empty_needle_rejected(self):
        with pytest.raises(ValueError):
            failure_function(b"")

    def test_simple_search(self):
        matches, _ = mp_search(b"hello world hello", b"hello")
        assert matches == [4, 16]  # end offsets of each match

    def test_no_match(self):
        matches, _ = mp_search(b"aaaa", b"b")
        assert matches == []

    def test_overlapping_matches_found(self):
        matches, _ = mp_search(b"aaaa", b"aa")
        assert matches == [1, 2, 3]

    def test_streaming_across_chunks(self):
        needle = b"needle"
        fail = failure_function(needle)
        # Split a match across two chunks.
        m1, state = mp_search(b"xxnee", needle, fail)
        m2, _ = mp_search(b"dlexx", needle, fail, state=state,
                          base_offset=5)
        assert m1 == []
        assert m2 == [7]  # global end offset of "needle" in "xxneedlexx"

    @given(st.binary(min_size=1, max_size=6), st.binary(max_size=200),
           st.integers(min_value=1, max_value=199))
    @settings(max_examples=60)
    def test_streaming_equals_whole_scan(self, needle, text, split):
        split = split % (len(text) + 1)
        fail = failure_function(needle)
        whole, _ = mp_search(text, needle, fail)
        m1, state = mp_search(text[:split], needle, fail)
        m2, _ = mp_search(text[split:], needle, fail, state=state,
                          base_offset=split)
        assert m1 + m2 == whole

    @given(st.binary(min_size=1, max_size=8), st.binary(max_size=300))
    @settings(max_examples=60)
    def test_matches_python_find_oracle(self, needle, text):
        expected = []
        start = 0
        while True:
            idx = text.find(needle, start)
            if idx < 0:
                break
            expected.append(idx + len(needle) - 1)
            start = idx + 1
        found, _ = mp_search(text, needle)
        assert found == expected

    def test_engine_carries_stream_state(self, sim):
        engine = MPEngine(sim, b"span", bytes_per_ns=1.0)
        stream = MPStream()

        def proc(sim):
            yield sim.process(engine.run_page(b"...sp", stream))
            yield sim.process(engine.run_page(b"an...", stream))
            return stream.matches

        assert sim.run_process(proc(sim)) == [6]

    def test_engine_default_rate_is_quarter_bus(self, sim):
        # 4 engines per bus at 0.0375 B/ns saturate a 0.15 B/ns bus.
        engine = MPEngine(sim, b"x")
        assert engine.bytes_per_ns == pytest.approx(0.15 / 4)


class TestGraphWalk:
    def test_vertex_roundtrip(self):
        page = encode_vertex(42, [1, 2, 3], 8192)
        vertex_id, neighbors = decode_vertex(page)
        assert vertex_id == 42
        assert neighbors == [1, 2, 3]

    def test_vertex_too_big_rejected(self):
        with pytest.raises(ValueError):
            encode_vertex(0, list(range(2000)), 256)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            decode_vertex(b"\x00" * 64)

    def test_engine_picks_deterministic_neighbor(self, sim):
        engine = GraphWalkEngine(sim)
        page = encode_vertex(1, [10, 20, 30], 8192)
        picks = [engine.process_page(page)[1] for _ in range(4)]
        assert picks == [10, 20, 30, 10]

    def test_sink_returns_none(self, sim):
        engine = GraphWalkEngine(sim)
        page = encode_vertex(5, [], 8192)
        assert engine.process_page(page) == (5, None)

    @given(st.integers(min_value=0, max_value=2**40),
           st.lists(st.integers(min_value=0, max_value=2**40), max_size=50))
    def test_roundtrip_property(self, vertex_id, neighbors):
        page = encode_vertex(vertex_id, neighbors, 8192)
        assert decode_vertex(page) == (vertex_id, neighbors)
