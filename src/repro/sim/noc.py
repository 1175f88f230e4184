"""Crossbar (NoC) model between compute tiles and the shared cache.

"We use non-coherent crossbars in Gem5 to connect the DSA's components to
the scratchpad and IX-cache" (Section 5). The crossbar matters because the
organizations load it very differently: an address cache is probed once
per touched block of every level, while the IX-cache is probed once per
walk ("queried on an average every 108 cycles") — so port contention
amplifies METAL's single-probe advantage under many concurrent walkers.
"""

from __future__ import annotations

from repro.obs.tracer import NULL_TRACER
from repro.params import CrossbarParams


class Crossbar:
    """Port-arbitrated crossbar with per-port occupancy timing."""

    def __init__(self, params: CrossbarParams | None = None) -> None:
        self.params = params or CrossbarParams()
        self._port_free = [0] * self.params.ports
        self.requests = 0
        self.total_wait = 0
        self.tracer = NULL_TRACER
        #: Optional FaultInjector (repro.faults). None on fault-free runs.
        self.faults = None

    def attach_obs(self, tracer, registry=None, prefix: str = "xbar") -> None:
        """Wire tracing and bind crossbar statistics into a registry."""
        self.tracer = tracer
        if registry is not None:
            registry.bind(f"{prefix}.requests", lambda: self.requests)
            registry.bind(f"{prefix}.total_wait", lambda: self.total_wait)

    def port_of(self, token: int) -> int:
        """Requests hash to ports by a token (cache bank / key block)."""
        return token % self.params.ports

    def access(self, token: int, now: int, service_cycles: int) -> int:
        """Arbitrate one probe; return its completion cycle."""
        port = self.port_of(token)
        start = max(now, self._port_free[port])
        if self.faults is not None:
            # A congestion burst delays service start: the slip is counted
            # as arbitration wait, so it lands in xbar_stall attribution.
            start += self.faults.noc_burst()
        self._port_free[port] = start + self.params.t_occupancy
        self.requests += 1
        self.total_wait += start - now
        if start > now and self.tracer.enabled:
            self.tracer.emit(
                "xbar_stall", ts=now, phase="engine",
                port=port, wait=start - now,
            )
        return start + service_cycles

    @property
    def average_wait(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.total_wait / self.requests

    def reset_timing(self) -> None:
        self._port_free = [0] * self.params.ports
