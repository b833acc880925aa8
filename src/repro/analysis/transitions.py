"""Collection/instance state-transition counts (paper figure 7).

Figure 7 annotates the lifecycle state machine with how often each
transition was exercised in cell g, noting that "common paths are many
orders of magnitude more frequently exercised than the rarer ones".  We
rebuild the diagram by replaying each instance's (and collection's)
event sequence and counting state changes.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Tuple

import numpy as np

from repro.analysis.common import codes_of
from repro.table import Table
from repro.trace.dataset import TraceDataset

#: State entered after each event type.
_EVENT_TO_STATE = {
    "SUBMIT": "PENDING",
    "QUEUE": "QUEUED",
    "ENABLE": "PENDING",
    "SCHEDULE": "RUNNING",
    "EVICT": "DEAD",    # instances are resubmitted afterwards
    "FAIL": "DEAD",
    "FINISH": "DEAD",
    "KILL": "DEAD",
    "UPDATE_RUNNING": "RUNNING",
}

# Terminal events name the cause, not just DEAD, so figure 7's per-cause
# arrows are reconstructible.  An evicted instance's follow-up SUBMIT
# produces the DEAD(evict) -> PENDING resubmission arc naturally.
_LABEL_OF = {event: state if state != "DEAD" else f"DEAD({event.lower()})"
             for event, state in _EVENT_TO_STATE.items()}
#: Code 0 is the state before an entity's first event.
_LABELS = ("NONE", *dict.fromkeys(_LABEL_OF.values()))
_CODE_OF = {event: _LABELS.index(label) for event, label in _LABEL_OF.items()}

Transition = Tuple[str, str]


def _count_stream(table: Table, *keys: str) -> Counter:
    """Count state transitions within each entity's time-ordered events.

    An entity is one value of the ``keys`` columns.  Rows whose event
    type enters no state are dropped; a stable sort by (entity, time)
    keeps tied events in row order.  Each row's label is then compared
    with the previous label of its entity (``NONE`` at its first row).
    """
    code = codes_of(table.column("type").values, _CODE_OF)
    rows = np.flatnonzero(code >= 0)
    entity = [table.column(k).values[rows] for k in keys]
    order = np.lexsort([table.column("time").values[rows], *reversed(entity)])
    label = code[rows[order]]
    same_entity = np.zeros(len(order), dtype=bool)
    same_entity[1:] = True
    for values in entity:
        values = values[order]
        same_entity[1:] &= values[1:] == values[:-1]
    prev = np.where(same_entity, np.roll(label, 1), 0)
    changed = label != prev
    n = len(_LABELS)
    pairs = np.bincount(prev[changed] * n + label[changed], minlength=n * n)
    return Counter({(_LABELS[p // n], _LABELS[p % n]): int(pairs[p])
                    for p in np.flatnonzero(pairs)})


def collection_transitions(trace: TraceDataset) -> Counter:
    """Transition counts over collection lifecycles."""
    return _count_stream(trace.collection_events, "collection_id")


def instance_transitions(trace: TraceDataset) -> Counter:
    """Transition counts over instance lifecycles (figure 7's bulk)."""
    return _count_stream(trace.instance_events, "collection_id",
                         "instance_index")


def transition_table(trace: TraceDataset) -> List[Tuple[str, str, int, int]]:
    """(from, to, collection_count, instance_count) rows, most common first."""
    coll = collection_transitions(trace)
    inst = instance_transitions(trace)
    keys = set(coll) | set(inst)
    rows = [(src, dst, coll.get((src, dst), 0), inst.get((src, dst), 0))
            for src, dst in keys]
    # Tie-break on the labels: ``keys`` is a set, so count-only sorting
    # would leave equal-total rows in hash-randomized order across runs.
    rows.sort(key=lambda r: (-(r[2] + r[3]), r[0], r[1]))
    return [r for r in rows if r[2] + r[3] > 0]
