"""Database analytics on Gorgon: SELECT / WHERE / JOIN with METAL.

Reproduces the workflow of the paper's analytics workloads (Section 5,
Table 2): relational tables behind B+tree primary indexes, declarative
operators lowered to walk requests, and the Level reuse pattern managing
the shared IX-cache across *both* trees of a join.

    python examples/database_analytics.py
"""

from repro import LevelDescriptor, compare_systems
from repro.bench.runner import run_workload
from repro.dsa.gorgon import ANALYTICS_CONFIG, join_requests
from repro.indexes.table import RecordTable
from repro.workloads.keygen import zipf_stream
from repro.workloads.suite import build_analytics_join


def build_tables() -> tuple[RecordTable, RecordTable]:
    """An orders table joined against a customers table."""
    customers = RecordTable.from_records(
        ("id", "region", "tier"),
        "id",
        (
            {"id": c, "region": c % 17, "tier": c % 3}
            for c in range(8_000)
        ),
        fanout=3,  # deep index, like Table 2's degree-5/depth-10 setup
    )
    fks = zipf_stream(8_000, 3_000, skew=0.9, seed=7)
    orders = RecordTable.from_records(
        ("id", "customer", "amount"),
        "id",
        (
            {"id": o, "customer": fk, "amount": (o * 37) % 500}
            for o, fk in enumerate(fks)
        ),
    )
    return orders, customers


def functional_queries(orders: RecordTable, customers: RecordTable) -> None:
    print("=== Functional semantics ===")
    rich = [r for r in orders.where(lambda r: r["amount"] > 450)]
    print(f"WHERE amount > 450: {len(rich)} orders")

    window = list(customers.select_range(100, 120))
    print(f"SELECT customers BETWEEN 100 AND 120: {len(window)} rows")

    joined = list(orders.join(customers, "customer"))
    print(f"JOIN orders x customers: {len(joined)} pairs")
    sample_order, sample_customer = joined[0]
    print(f"  e.g. order {sample_order['id']} -> customer "
          f"{sample_customer['id']} (region {sample_customer['region']})\n")


def simulated_join(orders: RecordTable, customers: RecordTable) -> None:
    """Time the join's index traffic under different cache organizations."""
    print("=== Simulated JOIN walk traffic ===")
    requests = join_requests(ANALYTICS_CONFIG, orders, customers, "customer")
    print(f"{len(requests)} inner-index probes, customers index "
          f"{customers.height} levels deep")

    from repro.sim.metrics import simulate
    from repro.sim.memsys import make_memsys
    from repro.params import CacheParams

    sim = ANALYTICS_CONFIG.sim_params()
    results = {}
    for kind in ("stream", "address", "xcache"):
        ms = make_memsys(kind, sim, CacheParams(capacity_bytes=8 * 1024))
        results[kind] = simulate(ms, requests, sim)
    descriptor = LevelDescriptor(0, customers.height - 1, min_level=0)
    ms = make_memsys("metal", sim, CacheParams(capacity_bytes=8 * 1024),
                     descriptors=descriptor)
    results["metal"] = simulate(ms, requests, sim)

    base = results["stream"].makespan
    for name, run in results.items():
        print(f"  {name:8s} {base / run.makespan:5.2f}x  "
              f"avg walk {run.avg_walk_latency:7.1f} cycles  "
              f"DRAM accesses {run.dram.accesses}")
    print()


def packaged_workload() -> None:
    """The same experiment through the packaged Table-2 JOIN workload."""
    print("=== Packaged JOIN workload (both trees shared in one IX-cache) ===")
    workload = build_analytics_join(scale=0.15)
    results = compare_systems(workload, kinds=("stream", "address", "metal"))
    base = results["stream"].makespan
    for name, run in results.items():
        print(f"  {name:8s} {base / run.makespan:5.2f}x")
    metal = run_workload(workload, "metal")
    print(f"  METAL short-circuited {metal.short_circuited} of "
          f"{metal.num_walks} walks "
          f"({metal.full_hits} complete short-circuits)")


if __name__ == "__main__":
    orders, customers = build_tables()
    functional_queries(orders, customers)
    simulated_join(orders, customers)
    packaged_workload()
