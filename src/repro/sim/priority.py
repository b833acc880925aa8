"""Priorities and tiers, for both trace generations (paper section 2).

The 2019 trace exposes raw priorities 0-450; the 2011 trace mapped the
unique priority values to bands 0-11.  Both map onto the same five
tiers; per the paper we merge the small monitoring tier into production
for the analyses.

2019 bands: free <= 99, best-effort batch 110-115, mid 116-119,
production 120-359, monitoring >= 360.
2011 bands: free 0-1, best-effort batch 2-8, production 9-10,
monitoring 11 (no mid tier existed).
"""

from __future__ import annotations

import enum
from typing import Tuple


class Tier(enum.Enum):
    """The paper's priority tiers, ordered from weakest to strongest."""

    FREE = "free"
    BEB = "beb"
    MID = "mid"
    PROD = "prod"
    MONITORING = "monitoring"

    #: Preemption strength: higher ranks may evict lower ones.  Bound as
    #: a plain per-member attribute below rather than a property: the
    #: scheduler reads ``.rank`` on every queue push and preemption
    #: check, and a property costs a descriptor call plus an enum-keyed
    #: dict hash (both Python-level) per access.
    rank: int

    @property
    def label(self) -> str:
        """Display label used in figures ('free tier', 'beb tier', ...)."""
        return f"{self.value} tier"


_RANKS = {
    Tier.FREE: 0,
    Tier.BEB: 1,
    Tier.MID: 2,
    Tier.PROD: 3,
    Tier.MONITORING: 4,
}
for _tier, _rank in _RANKS.items():
    _tier.rank = _rank
del _tier, _rank

#: Analysis ordering (paper figures stack free -> beb -> mid -> prod, with
#: monitoring merged into prod).
TIERS: Tuple[Tier, ...] = (Tier.FREE, Tier.BEB, Tier.MID, Tier.PROD)

#: The twelve raw priority values present in the 2011 trace, in band order
#: (band i had raw priority _PRIORITIES_2011[i]).
RAW_PRIORITIES_2011: Tuple[int, ...] = (0, 25, 100, 101, 103, 104, 107, 109, 119, 200, 360, 450)


def tier_of_priority_2019(priority: int) -> Tier:
    """Map a raw 2019 priority (0-450) to its tier."""
    if priority < 0 or priority > 450:
        raise ValueError(f"2019 priorities are 0-450, got {priority}")
    if priority <= 99:
        return Tier.FREE
    if priority <= 115:
        # The trace documentation places 100-109 with batch-adjacent
        # workloads; the paper's banding assigns 110-115 to beb and keeps
        # 100-109 in free (<=99 strictly, then a gap).  We follow the
        # paper text exactly: free is <= 99; 100-109 is treated as beb.
        return Tier.BEB
    if priority <= 119:
        return Tier.MID
    if priority <= 359:
        return Tier.PROD
    return Tier.MONITORING


def tier_of_priority_2011(band: int) -> Tier:
    """Map a 2011 priority band (0-11) to its tier."""
    if band < 0 or band > 11:
        raise ValueError(f"2011 priority bands are 0-11, got {band}")
    if band <= 1:
        return Tier.FREE
    if band <= 8:
        return Tier.BEB
    if band <= 10:
        return Tier.PROD
    return Tier.MONITORING
