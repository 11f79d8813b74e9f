"""Tests for the sparse matrix-vector multiply accelerator."""

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.apps.spmv import SpMVApp, make_sparse_matrix
from repro.core import BlueDBMNode
from repro.flash import FlashGeometry
from repro.isp.spmv import SpMVEngine, decode_rows, encode_rows, pack_csr_pages
from repro.sim import Simulator

GEO = FlashGeometry(buses_per_card=4, chips_per_bus=4, blocks_per_chip=16,
                    pages_per_block=16, page_size=2048, cards_per_node=2)


class TestCodec:
    def test_roundtrip(self):
        rows = [(0, [(1, 2.5), (3, -1.0)]), (7, []), (9, [(0, 1e-9)])]
        page = encode_rows(rows, 2048)
        assert decode_rows(page) == rows

    def test_exact_float64(self):
        value = 0.1 + 0.2  # not representable exactly in decimal
        rows = [(0, [(0, value)])]
        decoded = decode_rows(encode_rows(rows, 512))
        assert decoded[0][1][0][1] == value

    def test_too_big_rejected(self):
        rows = [(0, [(i, 1.0) for i in range(1000)])]
        with pytest.raises(ValueError):
            encode_rows(rows, 512)

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            encode_rows([(-1, [])], 512)
        with pytest.raises(ValueError):
            encode_rows([(0, [(-1, 1.0)])], 512)

    def test_pack_csr_pages_covers_all_rows(self):
        matrix = make_sparse_matrix(50, 40, density=0.2, seed=1)
        pages = pack_csr_pages(matrix, 1024)
        seen = {}
        for page in pages:
            for row_id, entries in decode_rows(page):
                seen[row_id] = entries
        assert set(seen) == set(range(50))
        # Every nonzero appears exactly once with its exact value.
        for row_id, entries in seen.items():
            for column, value in entries:
                assert matrix[row_id, column] == value

    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=100),
                  st.lists(st.tuples(st.integers(min_value=0, max_value=50),
                                     st.floats(allow_nan=False,
                                               allow_infinity=False,
                                               width=64)),
                           max_size=5)),
        max_size=5))
    @settings(max_examples=40)
    def test_roundtrip_property(self, rows):
        page = encode_rows(rows, 8192)
        assert decode_rows(page) == [
            (r, [(c, v) for c, v in entries]) for r, entries in rows]


class TestEngine:
    def test_partial_products(self):
        sim = Simulator()
        x = np.array([1.0, 2.0, 3.0])
        engine = SpMVEngine(sim, x)
        page = encode_rows([(0, [(0, 2.0), (2, 1.0)]),
                            (1, [(1, -1.0)])], 1024)

        def proc(sim):
            return (yield sim.process(engine.run_page(page)))

        partial = sim.run_process(proc(sim))
        assert partial == {0: 5.0, 1: -2.0}


class TestSpMVApp:
    def _setup(self, n_rows=80, n_cols=60):
        sim = Simulator()
        node = BlueDBMNode(sim, geometry=GEO, isp_queue_depth=4)
        app = SpMVApp(node, n_engines=4)
        matrix = make_sparse_matrix(n_rows, n_cols, density=0.1, seed=3)
        sim.run_process(app.load(matrix))
        rng = np.random.default_rng(7)
        x = rng.random(n_cols)
        return sim, app, matrix, x

    def test_isp_matches_numpy_oracle(self):
        sim, app, matrix, x = self._setup()

        def proc(sim):
            return (yield from app.run_isp(x))

        y, stats = sim.run_process(proc(sim))
        np.testing.assert_allclose(y, matrix @ x, rtol=1e-12)
        assert stats["nnz_per_sec"] > 0

    def test_host_matches_numpy_oracle(self):
        sim, app, matrix, x = self._setup()

        def proc(sim):
            return (yield from app.run_host(x))

        y, stats = sim.run_process(proc(sim))
        np.testing.assert_allclose(y, matrix @ x, rtol=1e-12)

    def test_isp_and_host_agree(self):
        sim, app, matrix, x = self._setup(40, 30)

        def isp(sim):
            return (yield from app.run_isp(x))

        y_isp, _ = sim.run_process(isp(sim))

        sim2, app2, matrix2, x2 = self._setup(40, 30)

        def host(sim2):
            return (yield from app2.run_host(x2))

        y_host, _ = sim2.run_process(host(sim2))
        np.testing.assert_allclose(y_isp, y_host, rtol=1e-12)

    def test_matrix_generator_validation(self):
        with pytest.raises(ValueError):
            make_sparse_matrix(0, 5)
        with pytest.raises(ValueError):
            make_sparse_matrix(5, 5, density=0)

    def test_empty_rows_handled(self):
        sim = Simulator()
        node = BlueDBMNode(sim, geometry=GEO, isp_queue_depth=4)
        app = SpMVApp(node, n_engines=2)
        matrix = np.zeros((10, 10))
        matrix[3, 4] = 2.0
        sim.run_process(app.load(matrix))
        x = np.ones(10)

        def proc(sim):
            return (yield from app.run_isp(x))

        y, _ = sim.run_process(proc(sim))
        np.testing.assert_allclose(y, matrix @ x)
