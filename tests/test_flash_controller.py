"""Tests for the chip model and the tagged flash card controller."""

import pytest

from repro.flash import (
    ErrorModel,
    EraseError,
    FlashCard,
    FlashGeometry,
    FlashTiming,
    PhysAddr,
    ProgramError,
    UncorrectablePageError,
    WearTracker,
)
from repro.sim import Process, Simulator, units

GEO = FlashGeometry(buses_per_card=2, chips_per_bus=2, blocks_per_chip=4,
                    pages_per_block=4, page_size=64, cards_per_node=1)
TIMING = FlashTiming(t_read_ns=50 * units.US, t_prog_ns=300 * units.US,
                     t_erase_ns=3 * units.MS, bus_bytes_per_ns=0.15,
                     aurora_bytes_per_ns=3.3, aurora_latency_ns=500,
                     cmd_overhead_ns=200)


def make_card(sim, **kwargs):
    kwargs.setdefault("geometry", GEO)
    kwargs.setdefault("timing", TIMING)
    return FlashCard(sim, **kwargs)


def expected_read_ns():
    return (TIMING.cmd_overhead_ns + TIMING.t_read_ns
            + units.transfer_ns(GEO.page_size, TIMING.bus_bytes_per_ns)
            + TIMING.aurora_latency_ns
            + units.transfer_ns(GEO.page_size, TIMING.aurora_bytes_per_ns))


@pytest.fixture
def sim():
    return Simulator()


class TestReadPath:
    def test_single_read_latency_composition(self, sim):
        card = make_card(sim)

        def proc(sim):
            yield sim.process(card.read_page(PhysAddr()))
            return sim.now

        assert sim.run_process(proc(sim)) == expected_read_ns()

    def test_read_returns_programmed_data(self, sim):
        card = make_card(sim)
        addr = PhysAddr(bus=1, chip=0, block=2, page=1)
        card.store.program(addr, b"needle in the flash")

        def proc(sim):
            result = yield sim.process(card.read_page(addr))
            return result.data

        data = sim.run_process(proc(sim))
        assert data.startswith(b"needle in the flash")

    def test_same_chip_reads_serialize(self, sim):
        card = make_card(sim)
        done = []

        def reader(sim, page):
            yield sim.process(card.read_page(PhysAddr(page=page)))
            done.append(sim.now)

        sim.process(reader(sim, 0))
        sim.process(reader(sim, 1))
        sim.run()
        # Second read waits a full t_read behind the first on the die.
        assert done[1] - done[0] >= TIMING.t_read_ns

    def test_different_buses_fully_parallel(self, sim):
        card = make_card(sim)
        done = []

        def reader(sim, bus):
            yield sim.process(card.read_page(PhysAddr(bus=bus)))
            done.append(sim.now)

        sim.process(reader(sim, 0))
        sim.process(reader(sim, 1))
        sim.run()
        # Cross-bus reads overlap entirely except tiny aurora sharing.
        assert done[1] - done[0] < 2 * units.US

    def test_chips_on_one_bus_pipeline(self, sim):
        card = make_card(sim)
        done = []

        def reader(sim, chip):
            yield sim.process(card.read_page(PhysAddr(chip=chip)))
            done.append(sim.now)

        sim.process(reader(sim, 0))
        sim.process(reader(sim, 1))
        sim.run()
        # Array reads overlap; only the (short) bus transfer serializes.
        assert done[1] - done[0] < TIMING.t_read_ns / 2

    def test_tag_pool_bounds_in_flight(self, sim):
        card = make_card(sim, tags=1)
        done = []

        def reader(sim, bus):
            yield sim.process(card.read_page(PhysAddr(bus=bus)))
            done.append(sim.now)

        sim.process(reader(sim, 0))
        sim.process(reader(sim, 1))
        sim.run()
        # With a single tag even cross-bus reads serialize.
        assert done[1] >= 2 * TIMING.t_read_ns

    def test_counters(self, sim, chip_ops):
        card = make_card(sim)

        def proc(sim):
            yield sim.process(card.read_page(PhysAddr()))
            yield sim.process(card.read_page(PhysAddr(page=1)))

        sim.process(proc(sim))
        sim.run()
        assert chip_ops["read"] == 2
        assert chip_ops["program"] == 0

    def test_wrong_card_rejected(self, sim):
        card = make_card(sim, node=0, card=0)
        with pytest.raises(ValueError):
            # Generator raises on construction-time validation at first step.
            sim.run_process(card.read_page(PhysAddr(card=1)))


class TestWriteErasePath:
    def test_write_then_read_roundtrip(self, sim, chip_ops):
        card = make_card(sim)
        addr = PhysAddr(block=1, page=0)

        def proc(sim):
            yield sim.process(card.write_page(addr, b"persist me"))
            result = yield sim.process(card.read_page(addr))
            return result.data

        assert sim.run_process(proc(sim)).startswith(b"persist me")
        assert chip_ops["program"] == 1

    def test_write_latency_exceeds_prog_time(self, sim):
        card = make_card(sim)

        def proc(sim):
            yield sim.process(card.write_page(PhysAddr(), b"x"))
            return sim.now

        assert sim.run_process(proc(sim)) >= TIMING.t_prog_ns

    def test_reprogram_without_erase_rejected(self, sim):
        card = make_card(sim)
        addr = PhysAddr(block=2, page=2)

        def proc(sim):
            yield sim.process(card.write_page(addr, b"first"))
            yield sim.process(card.write_page(addr, b"second"))

        with pytest.raises(ProgramError):
            sim.run_process(proc(sim))

    def test_erase_enables_reprogram(self, sim, chip_ops):
        card = make_card(sim)
        addr = PhysAddr(block=2, page=2)

        def proc(sim):
            yield sim.process(card.write_page(addr, b"first"))
            yield sim.process(card.erase_block(addr))
            yield sim.process(card.write_page(addr, b"second"))
            result = yield sim.process(card.read_page(addr))
            return result.data

        assert sim.run_process(proc(sim)).startswith(b"second")
        assert chip_ops["erase"] == 1
        assert card.wear.erase_count(addr) == 1

    def test_erase_clears_whole_block(self, sim):
        card = make_card(sim)
        a0 = PhysAddr(block=1, page=0)
        a1 = PhysAddr(block=1, page=1)

        def proc(sim):
            yield sim.process(card.write_page(a0, b"zero"))
            yield sim.process(card.write_page(a1, b"one"))
            yield sim.process(card.erase_block(a0))
            result = yield sim.process(card.read_page(a1))
            return result.data

        assert sim.run_process(proc(sim)) == b"\xff" * GEO.page_size

    def test_endurance_exhaustion_marks_bad(self, sim):
        card = make_card(sim, wear=WearTracker(endurance=2))
        addr = PhysAddr(block=3)

        def proc(sim):
            for _ in range(3):
                yield sim.process(card.erase_block(addr))

        with pytest.raises(EraseError):
            sim.run_process(proc(sim))
        assert card.badblocks.is_bad(addr)


class TestChipOperationsInline:
    """The card runs chip operations inline, with no ``Process``, yet
    each costs the same scheduling tickets a spawned chip process did
    (its bootstrap and completion are now two zero-delay turns)."""

    @pytest.mark.parametrize("op, tickets", [
        ("read_page", 12), ("write_page", 12), ("erase_block", 8)])
    def test_idle_card_op_tickets_and_processes(self, sim, monkeypatch,
                                                op, tickets):
        card = make_card(sim)
        addr = PhysAddr(bus=1, chip=1, block=2, page=0)
        if op == "read_page":
            card.store.program(addr, b"page")
        args = (addr, b"x" * GEO.page_size) if op == "write_page" else (addr,)
        built = []
        init = Process.__init__

        def counting_init(self, *init_args, **kwargs):
            built.append(self)
            init(self, *init_args, **kwargs)

        monkeypatch.setattr(Process, "__init__", counting_init)
        before = sim._eid
        # run_process's own process draws two of the tickets.
        sim.run_process(getattr(card, op)(*args))
        assert sim._eid - before == tickets
        assert len(built) == 1  # run_process's own


class TestErrorPath:
    def test_injected_single_bit_corrected(self, sim):
        card = make_card(
            sim, errors=ErrorModel(page_error_prob=1.0,
                                   double_error_fraction=0.0))
        addr = PhysAddr()
        payload = bytes(range(64))
        card.store.program(addr, payload)

        def proc(sim):
            result = yield sim.process(card.read_page(addr))
            return result

        result = sim.run_process(proc(sim))
        assert result.data == payload
        assert result.corrected_bits == 1

    def test_double_error_retires_block(self, sim):
        card = make_card(
            sim, errors=ErrorModel(page_error_prob=1.0,
                                   double_error_fraction=1.0))
        addr = PhysAddr()
        card.store.program(addr, bytes(64))

        def proc(sim):
            yield sim.process(card.read_page(addr))

        with pytest.raises(UncorrectablePageError):
            sim.run_process(proc(sim))
        assert card.uncorrectable == 1
        assert card.badblocks.is_bad(addr)

    def test_read_of_bad_block_rejected(self, sim):
        card = make_card(sim)
        addr = PhysAddr(block=1)
        card.badblocks.mark_bad(addr)

        def proc(sim):
            yield sim.process(card.read_page(addr))

        with pytest.raises(UncorrectablePageError):
            sim.run_process(proc(sim))

    def test_write_to_bad_block_rejected(self, sim):
        card = make_card(sim)
        addr = PhysAddr(block=1)
        card.badblocks.mark_bad(addr)

        def proc(sim):
            yield sim.process(card.write_page(addr, b"x"))

        with pytest.raises(ProgramError):
            sim.run_process(proc(sim))

    def test_error_free_reads_touch_no_ecc_counters(self, sim):
        card = make_card(sim)

        def proc(sim):
            result = yield sim.process(card.read_page(PhysAddr()))
            return result

        assert sim.run_process(proc(sim)).corrected_bits == 0
        assert card.uncorrectable == 0


class TestBandwidth:
    def test_peak_read_bandwidth_is_bus_limited(self, sim):
        card = make_card(sim)
        assert card.peak_read_bandwidth() == pytest.approx(0.3)  # 2 x 0.15

    def test_many_reads_scale_with_parallelism(self, sim):
        """Full-card random reads approach Nchips reads per t_read."""
        card = make_card(sim)
        n_chips = GEO.buses_per_card * GEO.chips_per_bus
        reads_per_chip = 4
        done = []

        def reader(sim, bus, chip, page):
            yield sim.process(
                card.read_page(PhysAddr(bus=bus, chip=chip, page=page)))
            done.append(sim.now)

        for bus in range(GEO.buses_per_card):
            for chip in range(GEO.chips_per_bus):
                for page in range(reads_per_chip):
                    sim.process(reader(sim, bus, chip, page))
        sim.run()
        total = n_chips * reads_per_chip
        assert len(done) == total
        # All chips work concurrently: elapsed ~ reads_per_chip * t_read,
        # nowhere near total * t_read (which serial execution would take).
        elapsed = max(done)
        assert elapsed < (reads_per_chip + 2) * TIMING.t_read_ns
        assert elapsed >= reads_per_chip * TIMING.t_read_ns

    def test_in_flight_gauge(self, sim):
        card = make_card(sim)
        # No command holds a tag: the whole pool is free.
        assert len(card._tag_pool.items) == card.tag_count

    def test_invalid_tags_rejected(self, sim):
        with pytest.raises(ValueError):
            make_card(sim, tags=0)
