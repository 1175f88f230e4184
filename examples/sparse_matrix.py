"""SpMM on Capstan: dynamic sparse tensors, fibers, and the Node pattern.

Shows the paper's Fig. 10 scenario: matrix B's nonzero columns behind a
B+tree coordinate index, probed by an inner product. The Node descriptor
pins hot column leaves for the burst of accesses they receive ("life is
set to the number of non-zeros in each column"), and the shallow fiber
variant shows why '-S' workloads gain less.

    python examples/sparse_matrix.py
"""

from repro import CompositeDescriptor, LevelDescriptor, NodeDescriptor
from repro.dsa.capstan import SPMM_CONFIG, spmm, spmm_requests
from repro.indexes.fiber import FiberMatrix
from repro.indexes.sparse_tensor import DynamicSparseTensor
from repro.params import CacheParams
from repro.sim.memsys import make_memsys
from repro.sim.metrics import simulate
from repro.workloads.matrices import inner_product_rows, powerlaw_coo


def build_b(dim: int = 2_048, nnz: int = 15_000, deep: bool = True):
    triples = powerlaw_coo((dim, dim), nnz, col_skew=0.9, seed=11)
    if deep:
        return DynamicSparseTensor.from_coo((dim, dim), triples, fanout=3)
    return FiberMatrix((dim, dim), triples)


def functional_check() -> None:
    print("=== Functional SpMM check (small) ===")
    b = DynamicSparseTensor.from_coo(
        (4, 4), [(0, 0, 2.0), (1, 1, 3.0), (0, 1, 1.0)]
    )
    a_rows = [[(0, 1.0)], [(0, 2.0), (1, 1.0)]]
    out = spmm(a_rows, b, 4)
    print(f"C rows: {out}")

    # Dynamic updates grow the same index in place.
    b.set(3, 3, 9.0)
    print(f"after dynamic insert, B[3,3] = {b.get(3, 3)}, nnz = {b.nnz}\n")


def simulated_spmm(deep: bool) -> None:
    label = "deep dynamic tensor" if deep else "shallow fibers (-S)"
    print(f"=== Simulated SpMM over {label} ===")
    b = build_b(deep=deep)
    a_rows = inner_product_rows(600, 12, 2_048, bandwidth=96, seed=12)
    requests = spmm_requests(SPMM_CONFIG, a_rows, b)
    print(f"B index: {b.height} levels, {b.nnz} nonzeros; "
          f"{len(requests)} coordinate walks")

    sim = SPMM_CONFIG.sim_params()
    params = CacheParams(capacity_bytes=8 * 1024)
    results = {}
    for kind in ("stream", "xcache"):
        ms = make_memsys(kind, sim, params)
        results[kind] = simulate(ms, requests, sim)

    # The paper's SpMM pattern: leaf lifetime pinning over a sweep band.
    descriptor = CompositeDescriptor([
        NodeDescriptor(target="leaf", life=2),
        LevelDescriptor(0, b.height - 1, min_level=0, min_touches=1,
                        frontier=False),
    ])
    ms = make_memsys("metal", sim, params, descriptors=descriptor,
                     key_block_bits=4)
    results["metal"] = simulate(ms, requests, sim)

    base = results["stream"].makespan
    for name, run in results.items():
        print(f"  {name:8s} {base / run.makespan:6.2f}x  "
              f"working set {run.working_set_fraction:.2f}  "
              f"full short-circuits {run.full_hits}")
    print()


if __name__ == "__main__":
    functional_check()
    simulated_spmm(deep=True)
    simulated_spmm(deep=False)
