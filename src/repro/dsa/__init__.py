"""Domain-specific architecture parameters (Section 2.1, Table 2).

The evaluation treats each DSA METAL is incorporated into — Gorgon
(relational), Capstan (sparse tensor), Aurochs (dataflow threads) — as an
engine that issues index walks at its Table-2 arithmetic intensities. Each
module holds those intensities as :class:`DSAConfig` constants beside the
``*_requests`` functions that lower the DSA's operators to walk requests.
"""

from repro.dsa.config import DSAConfig

__all__ = ["DSAConfig"]
