"""Synthetic sparse matrices with power-law structure.

Stand-ins for the paper's SuiteSparse (HB/bcsstk) inputs: what SpMM's cache
behaviour depends on is column-popularity skew (how often the inner product
revisits the same B column) and nonzeros-per-column, both explicit knobs
here.
"""

from __future__ import annotations

import numpy as np


def powerlaw_coo(
    shape: tuple[int, int],
    nnz: int,
    col_skew: float = 1.0,
    seed: int = 0,
) -> list[tuple[int, int, float]]:
    """(row, col, value) triples with Zipf-popular columns.

    Duplicate coordinates are collapsed (last write wins), so the returned
    count can be slightly below ``nnz``.
    """
    rows, cols = shape
    if rows <= 0 or cols <= 0:
        raise ValueError(f"shape must be positive, got {shape}")
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.power(np.arange(1, cols + 1, dtype=np.float64), col_skew)
    weights /= weights.sum()
    cs = rng.choice(cols, size=nnz, p=weights)
    rs = rng.integers(0, rows, size=nnz)
    vals = rng.standard_normal(nnz)
    seen: dict[tuple[int, int], float] = {}
    for r, c, v in zip(rs.tolist(), cs.tolist(), vals.tolist()):
        seen[(r, c)] = v
    return [(r, c, v) for (r, c), v in sorted(seen.items())]


def inner_product_rows(
    num_rows: int,
    nnz_per_row: int,
    num_cols: int,
    bandwidth: int = 96,
    col_skew: float = 1.0,
    seed: int = 0,
) -> list[list[tuple[int, float]]]:
    """Rows of A for the SpMM inner product, with banded column reuse.

    Each row holds ``nnz_per_row`` (col, value) pairs drawn from a sliding
    band around the row's diagonal position (stiffness-matrix structure).
    Consecutive rows revisit the same B columns within the band — the
    short-term leaf reuse the paper's Node pattern locks down with its
    access-count lifetime ("SpMM exhibits high short-term reuse").
    ``col_skew`` adds Zipf-weighted global hot columns on top.
    """
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.power(np.arange(1, num_cols + 1, dtype=np.float64), col_skew)
    weights /= weights.sum()
    rows = []
    for i in range(num_rows):
        center = int(i * num_cols / max(1, num_rows))
        lo = max(0, min(center - bandwidth // 2, num_cols - bandwidth))
        band = lo + rng.integers(0, bandwidth, size=max(1, nnz_per_row - 2))
        hot = rng.choice(num_cols, size=min(2, nnz_per_row), p=weights)
        cols = np.unique(np.concatenate([band, hot]))
        vals = rng.standard_normal(len(cols))
        rows.append([(int(c), float(v)) for c, v in zip(cols, vals)])
    return rows
