"""Domain entities: collections (jobs and alloc sets) and instances.

Terminology follows the 2019 trace: a *collection* is a job or an alloc
set; an *instance* is a task (of a job) or an alloc instance (of an
alloc set).  Tasks of a job marked to run inside an alloc set are placed
into that set's alloc instances rather than directly onto machines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.sim.priority import Tier
from repro.sim.resources import Resources


class CollectionType(enum.Enum):
    JOB = "job"
    ALLOC_SET = "alloc_set"


class InstanceState(enum.Enum):
    """Lifecycle states (paper figure 7)."""

    SUBMITTED = "submitted"
    QUEUED = "queued"      # held by the batch scheduler
    PENDING = "pending"    # ready; awaiting a placement decision
    RUNNING = "running"
    DEAD = "dead"


class EndReason(enum.Enum):
    """The four termination causes of section 5.2."""

    FINISH = "finish"  # completed normally
    EVICT = "evict"    # de-scheduled by the infrastructure
    KILL = "kill"      # canceled by the user or a parent-exit cascade
    FAIL = "fail"      # the workload's own problem (segfault, OOM, ...)


class SchedulerKind(enum.Enum):
    """Which scheduler admits the collection (Borg is multi-scheduler)."""

    BORG = "borg"
    BATCH = "batch"


@dataclass(eq=False, slots=True)
class Collection:
    """A job or an alloc set, plus its scheduling metadata.

    ``slots=True`` (here and on :class:`Instance`): the simulator holds
    hundreds of thousands of these and reads their attributes in every
    hot path — slot access is faster than a dict lookup and the objects
    shrink considerably.  Identity semantics (``eq=False``) are kept.
    """

    collection_id: int
    collection_type: CollectionType
    priority: int
    tier: Tier
    user: str
    submit_time: float
    scheduler: SchedulerKind = SchedulerKind.BORG
    parent_id: Optional[int] = None
    alloc_collection_id: Optional[int] = None  # the alloc set a job runs in
    autopilot_mode: str = "none"               # see sim.autopilot
    #: Placement constraint: required machine platform ("" = none).  The
    #: 2019 trace exposes such machine-attribute constraints (section 1).
    constraint: str = ""

    planned_duration: float = 0.0
    planned_end: EndReason = EndReason.FINISH
    #: Fraction of the CPU limit a task of this collection typically uses.
    cpu_usage_fraction: float = 0.5
    #: Fraction of the memory limit a task typically uses.
    mem_usage_fraction: float = 0.5
    instances: List["Instance"] = field(default_factory=list)

    # Lifecycle bookkeeping (filled in by the simulator).
    enable_time: Optional[float] = None        # left the batch queue / became ready
    first_running_time: Optional[float] = None
    end_time: Optional[float] = None
    end_reason: Optional[EndReason] = None
    child_ids: List[int] = field(default_factory=list)

    #: Derived flag resolved once at construction (collection_type never
    #: changes); a plain attribute because the simulator reads it on
    #: every placement and usage interval, where a property's descriptor
    #: call is measurable.
    is_alloc_set: bool = field(init=False)

    def __post_init__(self):
        self.is_alloc_set = self.collection_type is CollectionType.ALLOC_SET

    @property
    def is_done(self) -> bool:
        return self.end_reason is not None

    @property
    def num_instances(self) -> int:
        return len(self.instances)

@dataclass(eq=False, slots=True)
class Instance:
    """One replica: a task, or one alloc instance of an alloc set."""

    collection: Collection
    index: int
    request: Resources                      # the schedule-time limit
    state: InstanceState = InstanceState.SUBMITTED
    machine_id: Optional[int] = None
    #: For tasks inside an alloc set: the hosting alloc instance.
    alloc_instance: Optional["Instance"] = None
    #: For alloc instances: resources already claimed by tasks inside.
    claimed: Resources = Resources.ZERO
    start_time: Optional[float] = None      # current run's start
    n_schedules: int = 0                    # placements, incl. reschedules
    n_evictions: int = 0
    #: Bumped on every start/stop so stale hazard events can be discarded.
    incarnation: int = 0
    end_reason: Optional[EndReason] = None
    #: Dense id in the cell's event log, assigned with the first SUBMIT
    #: (-1 until then); the log's instance-event rows carry this, not
    #: the instance's constant fields.
    log_id: int = field(default=-1, init=False)

    @property
    def instance_id(self) -> Tuple[int, int]:
        return (self.collection.collection_id, self.index)

    @property
    def priority(self) -> int:
        return self.collection.priority

    @property
    def tier(self) -> Tier:
        return self.collection.tier

    #: Mirror of the owning collection's ``is_alloc_set``, resolved once
    #: (an instance never changes collection) — same hot-path reasoning.
    is_alloc_instance: bool = field(init=False)

    def __post_init__(self):
        self.is_alloc_instance = self.collection.is_alloc_set

    @property
    def constraint(self) -> str:
        return self.collection.constraint

    def available_in_alloc(self) -> Resources:
        """Free room inside this alloc instance (alloc instances only)."""
        if not self.is_alloc_instance:
            raise ValueError("available_in_alloc on a task instance")
        return self.request - self.claimed

    def record_stop(self, t: float) -> None:
        """Close the current run at time ``t``."""
        if self.start_time is None or self.machine_id is None:
            raise ValueError(f"instance {self.instance_id} stopped while not running")
        if t < self.start_time:
            raise ValueError(f"stop at {t} before start {self.start_time}")
        self.start_time = None
        self.machine_id = None
