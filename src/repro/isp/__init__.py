"""Concrete in-store processor engines (Section 7's accelerators).

* :mod:`~repro.isp.hamming` — LSH distance engine (Hamming over pages).
* :mod:`~repro.isp.mp` — Morris-Pratt streaming string search engines.
* :mod:`~repro.isp.graphwalk` — dependent-lookup graph traversal engine.

:mod:`~repro.isp.spmv` (sparse matrix-vector multiply) needs numpy, so
it is not re-exported here: import it directly.  The simulator itself
stays pure standard library.
"""

from .filter import FilterEngine, Predicate, Schema, col
from .graphwalk import GraphWalkEngine, decode_vertex, encode_vertex
from .hamming import HammingEngine, hamming_distance
from .mp import MPEngine, MPStream, failure_function, mp_search

__all__ = [
    "FilterEngine",
    "Predicate",
    "Schema",
    "col",
    "HammingEngine",
    "hamming_distance",
    "MPEngine",
    "MPStream",
    "failure_function",
    "mp_search",
    "GraphWalkEngine",
    "encode_vertex",
    "decode_vertex",
]
