"""Closed-form verification cost accounting.

These are arithmetic renderings of the protocol's storage and traffic
needs, not measurements: the verifier keeps the aggregated inputs, its
own credential material and the per-round working values (memory), and
the two parties exchange the aggregate plus d rounds of commitments and
openings (communication).  The response term carries a factor 2/3
because only two of the three challenge values open a permutation-sized
response.  An opened round is billed 32 + 3*l bits, so the permutation
costs 32 bits in all, whatever m is, not 32 bits per entry.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

BYTE = 8
KIB = 1024 * BYTE
MIB = 1024 * KIB


@dataclass(frozen=True)
class CostReport:
    memory_bits: int
    communication_bits: int

    @property
    def memory_mb(self) -> float:
        return self.memory_bits / MIB

    @property
    def communication_kb(self) -> float:
        return self.communication_bits / KIB

    def summary(self) -> str:
        return (f"memory {self.memory_bits} bits ({self.memory_mb:.2f} MB), "
                f"communication {self.communication_bits} bits "
                f"({self.communication_kb:.0f} KB)")


def cost_report(K: int, m: int, l: int, d: int, l_com: int) -> CostReport:
    """Exact bit counts for one d-round verification among K clients."""
    if min(K, m, l, l_com) < 1 or d < 0:
        raise ValueError("sizes must be positive (d may be zero)")
    memory = (K * m + 35 * d + K + 1) * l + m
    comm = Fraction(K * m * l + K * l + 3 * d * l_com) + Fraction(32 + 3 * l) * d * Fraction(2, 3)
    if comm.denominator != 1:
        # non-multiple-of-3 round counts average over challenge values
        return CostReport(memory, round(comm))
    return CostReport(memory, int(comm))
