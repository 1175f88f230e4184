"""Index data structures the target DSAs walk (Section 2.2).

All indexes share the traits the paper identifies: hierarchical structure
with internal roots, single-key lookups with short-circuit potential,
compressed internal roots carrying [Lo, Hi] ranges, deep layouts, and
ordered traversals. Every node carries a synthetic DRAM address so the
memory-system models can cache it.
"""

from repro.indexes.adjacency import AdjacencyList
from repro.indexes.base import IndexNode
from repro.indexes.bplustree import BPlusTree
from repro.indexes.fiber import FiberMatrix
from repro.indexes.pagetable import RadixPageTable
from repro.indexes.rtree import RTree2D, Rect
from repro.indexes.skiplist import SkipList
from repro.indexes.soa import SoABPlusTree, SoANode, SoARecordTable
from repro.indexes.sorted_set import SortedSet
from repro.indexes.sparse_tensor import DynamicSparseTensor

__all__ = [
    "AdjacencyList",
    "BPlusTree",
    "DynamicSparseTensor",
    "FiberMatrix",
    "IndexNode",
    "RadixPageTable",
    "Rect",
    "RTree2D",
    "SkipList",
    "SoABPlusTree",
    "SoANode",
    "SoARecordTable",
    "SortedSet",
]
