"""Capstan — vector RDA for sparsity (Rucker et al., MICRO'21).

"Capstan targets sparse tensor algebra with matrices represented as
fibres... METAL enables Capstan to work with dynamic tensors and supports
leaf-level scans." The SpMM workload is an inner product: for each output
row, retrieve the columns of B whose coordinates match A's nonzeros.
"""

from __future__ import annotations

from repro.dsa.config import DSAConfig
from repro.indexes.fiber import FiberMatrix
from repro.indexes.sparse_tensor import DynamicSparseTensor
from repro.sim.metrics import WalkRequest

#: Table 2: SpMM is 116 walk ops / 111 compute ops per row.
SPMM_CONFIG = DSAConfig("capstan", ops_per_walk=116, ops_per_compute=111)


def spmm_requests(
    config: DSAConfig,
    a_rows: list[list[tuple[int, float]]],
    b: DynamicSparseTensor | FiberMatrix,
) -> list[WalkRequest]:
    """One walk into B's column index per nonzero of A.

    ``a_rows[i]`` is row i of A as (col, value) pairs; the inner
    product probes B's index at each of A's nonzero coordinates. The
    repeated probing of the same B columns across A's rows is the
    leaf-level reuse the Node pattern captures (Fig. 10).
    """
    compute = config.compute_cycles_per_walk
    requests = []
    for row in a_rows:
        for col, _ in row:
            data_address = None
            if isinstance(b, DynamicSparseTensor):
                data_address = b.col_address(col)
            requests.append(
                WalkRequest(b, col, compute_cycles=compute, data_address=data_address)
            )
    return requests


def spmm(
    a_rows: list[list[tuple[int, float]]],
    b: DynamicSparseTensor | FiberMatrix,
    num_cols_out: int,
) -> list[dict[int, float]]:
    """C = A x B with B behind its coordinate index; C as dict rows.

    B's stored columns are keyed by B-column id; A's (col, val) hits
    B's *row* coordinate space: C[i][j] += A[i][k] * B[k][j].
    """
    out: list[dict[int, float]] = []
    for row in a_rows:
        acc: dict[int, float] = {}
        for k, a_val in row:
            for j in b_columns_of_row(b, k, num_cols_out):
                b_val = b.get(k, j)
                if b_val != 0.0:
                    acc[j] = acc.get(j, 0.0) + a_val * b_val
        out.append(acc)
    return out


def b_columns_of_row(
    b: DynamicSparseTensor | FiberMatrix, row: int, num_cols: int
) -> list[int]:
    """Columns j where B[row, j] != 0 (scan of stored columns)."""
    return [j for j in b.stored_columns() if j < num_cols and b.get(row, j) != 0.0]
