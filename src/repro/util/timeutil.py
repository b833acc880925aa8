"""Time constants and helpers.

All simulator and trace timestamps are **seconds since trace start** as
floats.  The paper's analyses aggregate into 1-hour windows (figures 2
and 4) and sample usage every 5 minutes (CPU histograms, Autopilot
slack); the constants here are the single source of truth for those
window sizes.
"""

from __future__ import annotations

import math

MINUTE_SECONDS = 60.0
HOUR_SECONDS = 3600.0
DAY_SECONDS = 86400.0

#: The 2019 trace samples per-instance usage every 5 minutes.
SAMPLE_PERIOD_SECONDS = 300.0


def hours(n: float) -> float:
    """Convert hours to seconds."""
    return n * HOUR_SECONDS


def local_hour(t: float, utc_offset_hours: float) -> float:
    """Local wall-clock hour-of-day in [0, 24) for trace time ``t``.

    The trace origin is taken to be midnight UTC; cells carry a
    ``utc_offset_hours`` (e.g. Singapore = +8, US Pacific = -7 in May,
    which observes daylight saving).  Used to reproduce the figure 6
    same-local-time machine-utilization snapshot and the diurnal load
    cycle remarked on in section 4.1.
    """
    h = (t / HOUR_SECONDS + utc_offset_hours) % 24.0
    # Guard against -0.0 and floating point drift at the boundary.
    return math.fmod(h + 24.0, 24.0)
