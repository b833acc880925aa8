"""The simulator's event log — the raw material of trace generation.

Event vocabulary follows the 2019 trace: SUBMIT, QUEUE, ENABLE,
SCHEDULE, EVICT, FAIL, FINISH, KILL, UPDATE_RUNNING (limit changes by
Autopilot), plus machine ADD/REMOVE events.  Collection events and
instance events are recorded in separate streams, exactly as the trace
separates ``collection_events`` and ``instance_events`` tables.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, NamedTuple

import numpy as np

_tuple_new = tuple.__new__


class EventType(enum.Enum):
    SUBMIT = "SUBMIT"
    QUEUE = "QUEUE"
    ENABLE = "ENABLE"
    SCHEDULE = "SCHEDULE"
    EVICT = "EVICT"
    FAIL = "FAIL"
    FINISH = "FINISH"
    KILL = "KILL"
    UPDATE_RUNNING = "UPDATE_RUNNING"


#: Event types that terminate a collection or instance.
TERMINAL_EVENTS = frozenset(
    {EventType.EVICT, EventType.FAIL, EventType.FINISH, EventType.KILL}
)

_EVENT_TYPES = tuple(EventType)


def event_code(event: EventType, is_new: bool = False) -> int:
    """The instance-event code of ``event``: its position times two,
    plus ``is_new`` (so ``code >> 1`` is the type, ``code & 1`` the flag).

    The simulator passes these ints instead of ``EventType`` members,
    whose Python-level ``__hash__`` the hot path would otherwise pay.
    """
    return 2 * _EVENT_TYPES.index(event) + int(is_new)


SUBMIT_NEW = event_code(EventType.SUBMIT, is_new=True)
SUBMIT_CODE = event_code(EventType.SUBMIT)
SCHEDULE_NEW = event_code(EventType.SCHEDULE, is_new=True)
SCHEDULE_CODE = event_code(EventType.SCHEDULE)
EVICT_CODE = event_code(EventType.EVICT)
FAIL_CODE = event_code(EventType.FAIL)
#: One in-place restart: FAIL, SUBMIT and SCHEDULE at the same time.
CRASH_LOOP = 2 * len(_EVENT_TYPES)
#: Trace ``type`` string of each ``code >> 1``.
EVENT_TYPE_NAMES = tuple(e.value for e in _EVENT_TYPES)


# The event records are NamedTuples rather than frozen dataclasses:
# tuple construction is several times cheaper than a frozen dataclass's
# __init__ + object.__setattr__ per field.  InstanceEvent is only a row
# shape: the log stores instance events as columns (see EventLog).
class CollectionEvent(NamedTuple):
    time: float
    collection_id: int
    event: EventType
    collection_type: str      # "job" | "alloc_set"
    priority: int
    tier: str                 # "free" | "beb" | "mid" | "prod" | "monitoring"
    user: str
    scheduler: str            # "borg" | "batch"
    parent_id: int            # -1 when absent
    alloc_collection_id: int  # -1 when absent
    autopilot_mode: str       # "none" | "fully" | "constrained"
    constraint: str           # required machine platform; "" when absent
    num_instances: int


class InstanceEvent(NamedTuple):
    time: float
    collection_id: int
    instance_index: int
    event: EventType
    machine_id: int           # -1 when not placed
    priority: int
    tier: str
    cpu_request: float
    mem_request: float
    is_new: bool              # False for reschedules of previously-run work


class MachineEvent(NamedTuple):
    time: float
    machine_id: int
    event: str                # "ADD" | "REMOVE" | "UPDATE"
    cpu_capacity: float
    mem_capacity: float


class ResubmitEvent(NamedTuple):
    """Provenance of one resubmission: which failed job it retries.

    The resubmitted collection appears in the ordinary collection/
    instance streams as a brand-new SUBMIT (that is how the real trace
    shows resubmissions — fresh collection ids); this side stream is
    what lets analyses stitch chains back together.
    """

    time: float               # when the resubmission entered the cell
    collection_id: int        # the new (resubmitted) collection
    prev_collection_id: int   # the failed collection it retries
    root_collection_id: int   # the chain's original collection
    attempt: int              # 1-based resubmission attempt number
    delay: float              # backoff that preceded this resubmission
    user: str
    tier: str


class EventLog:
    """Append-only streams of collection, instance and machine events.

    The instance-event stream is columnar: one event appends four plain
    values to per-field lists (time, the instance's dense log id, a
    small-int event code, machine id).  Everything else about the row —
    collection id, index, priority, tier, request — is constant per
    instance and is read once per instance at encode time, by log id.
    :attr:`instance_events` reads the stream back as
    :class:`InstanceEvent` rows.
    """

    def __init__(self):
        self.collection_events: List[CollectionEvent] = []
        self.machine_events: List[MachineEvent] = []
        self.resubmit_events: List[ResubmitEvent] = []
        #: Registered instances; an instance's ``log_id`` indexes this.
        self.instances: list = []
        # The instance-event columns, one entry per record.
        self._time: List[float] = []
        self._log_id: List[int] = []
        self._code: List[int] = []
        self._machine: List[int] = []
        self._crash_loops = 0
        self.instance_events = InstanceEventRows(self)

    def collection(self, time: float, collection, event: EventType) -> None:
        """Record a collection-level event."""
        parent_id = collection.parent_id
        alloc_id = collection.alloc_collection_id
        # tuple.__new__ skips the NamedTuple's Python-level __new__
        # wrapper; the object is an ordinary CollectionEvent.
        self.collection_events.append(
            _tuple_new(
                CollectionEvent,
                (
                    time,
                    collection.collection_id,
                    event,
                    # ._value_ is the member's plain value attribute; the
                    # public .value spelling routes through
                    # DynamicClassAttribute.__get__, a descriptor call the
                    # event hot path makes millions of times per run.
                    collection.collection_type._value_,
                    collection.priority,
                    collection.tier._value_,
                    collection.user,
                    collection.scheduler._value_,
                    parent_id if parent_id is not None else -1,
                    alloc_id if alloc_id is not None else -1,
                    collection.autopilot_mode,
                    collection.constraint,
                    collection.num_instances,
                ),
            )
        )

    def submit(self, time: float, instance) -> None:
        """Register ``instance`` and record its first SUBMIT (is_new)."""
        instance.log_id = log_id = len(self.instances)
        self.instances.append(instance)
        self._time.append(time)
        self._log_id.append(log_id)
        self._code.append(SUBMIT_NEW)
        self._machine.append(-1)

    def instance(self, time: float, instance, code: int,
                 machine_id: int = -1) -> None:
        """Record an instance event; ``code`` is an :func:`event_code` value."""
        self._time.append(time)
        self._log_id.append(instance.log_id)
        self._code.append(code)
        self._machine.append(machine_id)

    def crash_loop(self, time: float, instance, machine_id: int) -> None:
        """Record FAIL + SUBMIT + SCHEDULE of one in-place restart.

        The crash-loop churn of figure 9 is most of a run's instance
        events; one record stands for the triple, and
        :meth:`instance_columns` expands it in place.
        """
        self._time.append(time)
        self._log_id.append(instance.log_id)
        self._code.append(CRASH_LOOP)
        self._machine.append(machine_id)
        self._crash_loops += 1

    def instance_columns(self) -> Dict[str, np.ndarray]:
        """The instance-event stream as expanded row columns.

        Returns ``time`` (float64), ``log_id``, ``code`` and
        ``machine_id`` (int64), one entry per trace row: every
        CRASH_LOOP record becomes FAIL (its machine), SUBMIT (-1) and
        SCHEDULE (its machine), all with is_new False, between the
        records around it.
        """
        time = np.array(self._time, dtype=np.float64)
        log_id = np.array(self._log_id, dtype=np.int64)
        code = np.array(self._code, dtype=np.int64)
        machine = np.array(self._machine, dtype=np.int64)
        if self._crash_loops:
            loops = np.flatnonzero(code == CRASH_LOOP)
            repeats = np.ones(len(code), dtype=np.int64)
            repeats[loops] = 3
            time = np.repeat(time, repeats)
            log_id = np.repeat(log_id, repeats)
            code = np.repeat(code, repeats)
            machine = np.repeat(machine, repeats)
            # Expanded position of each triple's FAIL row: every earlier
            # crash-loop record added two rows.
            first = loops + 2 * np.arange(len(loops))
            code[first] = FAIL_CODE
            code[first + 1] = SUBMIT_CODE
            code[first + 2] = SCHEDULE_CODE
            machine[first + 1] = -1
        return {"time": time, "log_id": log_id, "code": code,
                "machine_id": machine}

    def machine(self, time: float, machine_id: int, event: str,
                cpu_capacity: float, mem_capacity: float) -> None:
        self.machine_events.append(
            MachineEvent(time, machine_id, event, cpu_capacity, mem_capacity)
        )

    def resubmit(self, time: float, collection_id: int,
                 prev_collection_id: int, root_collection_id: int,
                 attempt: int, delay: float, user: str, tier: str) -> None:
        """Record resubmission provenance (fault injection only)."""
        self.resubmit_events.append(
            ResubmitEvent(time, collection_id, prev_collection_id,
                          root_collection_id, attempt, delay, user, tier)
        )

    def __len__(self) -> int:
        return (len(self.collection_events) + len(self.instance_events)
                + len(self.machine_events) + len(self.resubmit_events))


class InstanceEventRows:
    """Read-only sequence view of an :class:`EventLog`'s instance events.

    ``len()`` is the expanded row count, in O(1).  Iterating or indexing
    yields :class:`InstanceEvent` tuples, rebuilt from the columns and
    the registered instances; each call expands the whole stream, so
    iterate once rather than index in a loop.
    """

    __slots__ = ("_log",)

    def __init__(self, log: EventLog):
        self._log = log

    def __len__(self) -> int:
        # A crash-loop record stands for three rows.
        log = self._log
        return len(log._code) + 2 * log._crash_loops

    def __iter__(self) -> Iterator[InstanceEvent]:
        columns = self._log.instance_columns()
        instances = self._log.instances
        for time, log_id, code, machine_id in zip(
                columns["time"].tolist(), columns["log_id"].tolist(),
                columns["code"].tolist(), columns["machine_id"].tolist()):
            instance = instances[log_id]
            collection = instance.collection
            request = instance.request
            yield InstanceEvent(
                time, collection.collection_id, instance.index,
                _EVENT_TYPES[code >> 1], machine_id, collection.priority,
                collection.tier._value_, request.cpu, request.mem,
                bool(code & 1))

    def __getitem__(self, index):
        return list(self)[index]
