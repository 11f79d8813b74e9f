"""Full applications with accelerated and software execution paths.

* :mod:`~repro.apps.lsh` — LSH nearest-neighbour search (Figures 16-19).
* :mod:`~repro.apps.graph` — distributed graph traversal (Figure 20).
* :mod:`~repro.apps.search` — string search vs grep (Figure 21).

:mod:`~repro.apps.spmv` needs numpy, so it is not re-exported here:
import it directly.
"""

from .graph import DistributedGraph, GraphTraversal
from .lsh import (
    LSHIndex,
    NearestNeighborISP,
    SoftwareNN,
    TieredPageStore,
    brute_force_nearest,
    make_item_corpus,
)
from .mapreduce import WordCountJob, make_sharded_corpus
from .search import SoftwareGrep, StringSearchISP, make_text_corpus
from .sql import FlashTable, TableScan, make_orders_table

__all__ = [
    "LSHIndex",
    "NearestNeighborISP",
    "SoftwareNN",
    "TieredPageStore",
    "brute_force_nearest",
    "make_item_corpus",
    "DistributedGraph",
    "GraphTraversal",
    "StringSearchISP",
    "SoftwareGrep",
    "make_text_corpus",
    "WordCountJob",
    "make_sharded_corpus",
    "FlashTable",
    "TableScan",
    "make_orders_table",
]
