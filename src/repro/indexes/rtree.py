"""Two-dimensional R-tree built from paired B-trees (§4.3).

The paper's spatial-analysis workload indexes quadrilaterals "bound by x and
y coordinates; each of the coordinates are indexed in a BTree with the leaf
values in the x-tree serving as keys to the y-tree". A query walks the
x-tree for a point's x coordinate, retrieves the correlated y keys, then
walks the (smaller) y-tree for each to assemble candidate quadrilaterals.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.indexes.base import IndexNode
from repro.indexes.bplustree import BPlusTree
from repro.mem.layout import Allocator


@dataclass(frozen=True)
class Rect:
    """An axis-aligned quadrilateral (bounding box)."""

    rect_id: int
    x_lo: int
    x_hi: int
    y_lo: int
    y_hi: int

    def __post_init__(self) -> None:
        if self.x_lo > self.x_hi or self.y_lo > self.y_hi:
            raise ValueError(f"degenerate rect: {self}")

    def contains(self, x: int, y: int) -> bool:
        return self.x_lo <= x <= self.x_hi and self.y_lo <= y <= self.y_hi

    def intersects(self, other: "Rect") -> bool:
        return not (
            other.x_hi < self.x_lo
            or other.x_lo > self.x_hi
            or other.y_hi < self.y_lo
            or other.y_lo > self.y_hi
        )


class RTree2D:
    """Paired x/y B-trees over quadrilateral anchor coordinates.

    The x-tree maps each distinct ``x_lo`` to the list of (y_lo, rect_id)
    anchored there; the y-tree maps each distinct ``y_lo`` to the rects
    anchored at that y. Table 2 uses degree 5 / depth 10 for BTree-x and
    degree 3 / depth 6 for BTree-y; both are constructor knobs here.
    """

    def __init__(
        self,
        rects: Iterable[Rect],
        x_fanout: int = 9,
        y_fanout: int = 5,
        allocator: Allocator | None = None,
    ) -> None:
        self.allocator = allocator or Allocator()
        self._rects: dict[int, Rect] = {}
        #: Widest rect extents: bound how far left/down of a query point an
        #: anchor can sit while still containing it (the scan window).
        self.max_width = 0
        self.max_height = 0
        x_map: dict[int, list[tuple[int, int]]] = {}
        y_map: dict[int, list[int]] = {}
        for rect in rects:
            if rect.rect_id in self._rects:
                raise ValueError(f"duplicate rect id {rect.rect_id}")
            self._rects[rect.rect_id] = rect
            self.max_width = max(self.max_width, rect.x_hi - rect.x_lo)
            self.max_height = max(self.max_height, rect.y_hi - rect.y_lo)
            x_map.setdefault(rect.x_lo, []).append((rect.y_lo, rect.rect_id))
            y_map.setdefault(rect.y_lo, []).append(rect.rect_id)
        self.x_tree = BPlusTree.bulk_load(
            sorted(x_map.items()), fanout=x_fanout, allocator=self.allocator
        )
        self.y_tree = BPlusTree.bulk_load(
            sorted(y_map.items()), fanout=y_fanout, allocator=self.allocator
        )

    def __len__(self) -> int:
        return len(self._rects)

    def rect(self, rect_id: int) -> Rect:
        return self._rects[rect_id]

    def correlated_y_keys(self, x: int, window: int = 0) -> list[int]:
        """The y keys reachable from x-tree leaves within +-window of x."""
        keys: list[int] = []
        for _, anchored in self.x_tree.range_scan(x - window, x + window):
            keys.extend(y for y, _ in anchored)
        return sorted(set(keys))

    # ------------------------------------------------------------------ #
    # Spatial queries (functional semantics, used by tests/examples)
    # ------------------------------------------------------------------ #

    def query_point(self, x: int, y: int) -> list[Rect]:
        """Rects containing the point, via a bounded x-tree range scan.

        A containing rect's anchor must lie in [x - max_width, x], so the
        scan is an index range scan of that window (the §4.3 walk pattern)
        rather than a full pass.
        """
        found: list[Rect] = []
        seen: set[int] = set()
        for _, anchored in self.x_tree.range_scan(x - self.max_width, x):
            for _, rect_id in anchored:
                rect = self._rects[rect_id]
                if rect_id not in seen and rect.contains(x, y):
                    seen.add(rect_id)
                    found.append(rect)
        return sorted(found, key=lambda r: r.rect_id)

    def query_window(self, window: Rect) -> list[Rect]:
        """Rects intersecting the window, via a bounded x-tree range scan."""
        hits: list[Rect] = []
        seen: set[int] = set()
        lo = window.x_lo - self.max_width
        for _, anchored in self.x_tree.range_scan(lo, window.x_hi):
            for _, rect_id in anchored:
                rect = self._rects[rect_id]
                if rect_id not in seen and rect.intersects(window):
                    seen.add(rect_id)
                    hits.append(rect)
        return sorted(hits, key=lambda r: r.rect_id)

    def query_window_bruteforce(self, window: Rect) -> list[Rect]:
        """Reference semantics for testing the index-driven query."""
        hits = [r for r in self._rects.values() if r.intersects(window)]
        return sorted(hits, key=lambda r: r.rect_id)

    def nodes(self) -> Iterator[IndexNode]:
        yield from self.x_tree.nodes()
        yield from self.y_tree.nodes()
