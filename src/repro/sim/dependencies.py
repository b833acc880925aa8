"""Parent-child job dependencies (paper sections 3 and 5.2).

If a Borg job has a parent job, the child is killed automatically when
its parent terminates — the MapReduce controller/worker cleanup pattern.
The paper shows this mechanism explains much of the "high failure rate"
earlier studies read into the 2011 trace: 87% of jobs with a parent end
in a kill, versus 41% of parentless jobs.
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim.entities import Collection


class DependencyManager:
    """Tracks the parent -> children relation and cascade kills."""

    def __init__(self):
        self._children: Dict[int, List[Collection]] = {}

    def register(self, collection: Collection) -> None:
        """Record ``collection`` under its parent, if it has one."""
        if collection.parent_id is None:
            return
        self._children.setdefault(collection.parent_id, []).append(collection)

    def on_termination(self, collection: Collection) -> List[Collection]:
        """Collections to cascade-kill because ``collection`` terminated.

        Returns only children that are still alive; grandchildren are
        handled by the caller re-invoking this as each child dies, so a
        whole tree unwinds through repeated calls.
        """
        kids = self._children.pop(collection.collection_id, [])
        return [c for c in kids if not c.is_done]
