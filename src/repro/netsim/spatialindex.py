"""The wireless medium's position index: who is within range of a point.

The disk propagation model asks one question over and over: *which nodes
are within radio range of this point, in attachment order?* Scanning every
attached node makes each broadcast O(all nodes). :class:`PositionIndex`
buckets nodes into square cells whose side is the radio range, so a query
inspects the few cells its circle touches instead of the whole world.

* **Static nodes** sit in the cell of their position. A bucket entry is
  ``(attach seq, x, y, id)``: a query tests a candidate without a dict
  probe, and sorts its hits into attachment order on ints.
* **Time-varying nodes** (:func:`~repro.netsim.mobility.is_time_varying`)
  sit in the cell of their position at the last bucketing. A query visits
  the cells its circle touches widened by ``v_max * (now - bucketed_at)``,
  where ``v_max`` bounds every mover's speed
  (:func:`~repro.netsim.mobility.speed_bound`), and tests each candidate at
  its exact position at ``now``. Movers are re-bucketed only once that
  widening passes :data:`REBUCKET_SHARE` of a cell; while some mover's
  speed has no bound, every mover is a candidate.

The distance test is ``dx*dx + dy*dy <= r*r`` everywhere a range is
decided — here and in the medium's memo and unicast checks — so every
answer agrees at the inclusive edge (``math.hypot`` can disagree with a
squared compare by one ulp there).

Keeping the index current is the owner's job:
:class:`~repro.netsim.medium.WirelessMedium` inserts and removes nodes as
they attach and detach and calls :meth:`PositionIndex.note_moved` whenever
an attached node moves.
"""

from __future__ import annotations

from bisect import bisect_left
from math import floor, inf
from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.netsim.mobility import is_time_varying, linear_params, speed_bound

Cell = Tuple[int, int]

#: Movers are re-bucketed once the fastest of them can have covered this
#: share of a cell since the last bucketing.
REBUCKET_SHARE = 0.5

#: A query's cells reach this share of a cell past its circle on each
#: side: a node whose rounded distance is in range though its coordinate
#: lies a rounding error beyond the circle is never in a skipped cell.
_SLIVER = 1e-9

#: A bucket entry's node id, static or mover.
_ID = itemgetter(3)


class PositionIndex:
    """Range queries over attached nodes, answered in attachment order.

    The cell side is the dominant query radius (the radio range): a circle
    of that radius touches at most a 3x3 block of static cells.
    """

    __slots__ = ("cell_size", "_next_seq", "_node_of", "_cells", "_static",
                 "_movers", "_mover_cells", "_v_max", "bucketed_at")

    def __init__(self, cell_size: float):
        if not cell_size > 0:
            raise ConfigurationError(
                f"cell size must be positive, got {cell_size!r}"
            )
        self.cell_size = cell_size
        self._next_seq = 0
        self._node_of: Dict[str, Any] = {}
        # Static nodes: cell -> [(seq, x, y, id)], and id -> its entry (the
        # cell is recomputed from x and y).
        self._cells: Dict[Cell, List[tuple]] = {}
        self._static: Dict[str, tuple] = {}
        # Movers: id -> (seq, linear params or None, model, id), and the
        # same entries bucketed by their cell at ``bucketed_at``.
        self._movers: Dict[str, tuple] = {}
        self._mover_cells: Dict[Cell, List[tuple]] = {}
        self._v_max: Optional[float] = None  # None: owed
        #: Virtual time of the last bucketing of movers; None while one is owed.
        self.bucketed_at: Optional[float] = None

    # ------------------------------------------------------------ membership

    def insert(self, node: Any) -> None:
        """Add ``node``, last in attachment order."""
        node_id = node.node_id
        if node_id in self._node_of:
            raise ConfigurationError(f"{node_id!r} is already in the index")
        self._node_of[node_id] = node
        self._classify(node, self._next_seq)
        self._next_seq += 1

    def note_moved(self, node: Any) -> None:
        """Re-file ``node`` after a reposition or a mobility swap; it keeps
        its place in attachment order."""
        if node.node_id in self._node_of:
            self._classify(node, self._declassify(node.node_id))

    def _classify(self, node: Any, seq: int) -> None:
        node_id = node.node_id
        mobility = node.mobility
        if is_time_varying(mobility):
            self._movers[node_id] = (seq, linear_params(mobility), mobility,
                                     node_id)
            self._forget_movers()
            return
        position = node.position
        entry = self._static[node_id] = (seq, position.x, position.y, node_id)
        cell = self._cell_of(entry)
        bucket = self._cells.get(cell)
        if bucket is None:
            self._cells[cell] = [entry]
        else:
            bucket.append(entry)

    def _declassify(self, node_id: str) -> int:
        """Unfile ``node_id``; returns its attach sequence."""
        mover = self._movers.pop(node_id, None)
        if mover is not None:
            self._forget_movers()
            return mover[0]
        entry = self._static.pop(node_id)
        cell = self._cell_of(entry)
        bucket = self._cells[cell]
        bucket.remove(entry)
        if not bucket:
            del self._cells[cell]
        return entry[0]

    def _cell_of(self, entry: tuple) -> Cell:
        """The cell of a static entry's position."""
        size = self.cell_size
        return (int(entry[1] // size), int(entry[2] // size))

    def _forget_movers(self) -> None:
        """Owe a re-bucketing and a fresh speed bound."""
        self._v_max = None
        self.bucketed_at = None

    # ----------------------------------------------------------------- movers

    def speed_bound(self) -> float:
        """The fastest any attached mover can move; 0.0 with none, ``inf``
        when some mover's speed has no bound."""
        v_max = self._v_max
        if v_max is None:
            v_max = self._v_max = max(
                (speed_bound(entry[2]) for entry in self._movers.values()),
                default=0.0,
            )
        return v_max

    def _rebucket(self, now: float) -> None:
        """File every mover under the cell of its position at ``now``."""
        size = self.cell_size
        cells: Dict[Cell, List[tuple]] = {}
        for entry in self._movers.values():
            position = entry[2].position_at(now)
            cell = (int(position.x // size), int(position.y // size))
            bucket = cells.get(cell)
            if bucket is None:
                cells[cell] = [entry]
            else:
                bucket.append(entry)
        self._mover_cells = cells
        self.bucketed_at = now

    # ---------------------------------------------------------------- queries

    def _near(
        self, x: float, y: float, radius: float, reach: float, now: float,
    ) -> Tuple[List[tuple], List[tuple]]:
        """Static entries within ``radius`` of (x, y) and mover entries
        within ``reach`` of it at ``now``, both unordered."""
        size = self.cell_size
        r2 = radius * radius
        statics: List[tuple] = []
        cells = self._cells
        for cx in range(floor((x - radius) / size - _SLIVER),
                        floor((x + radius) / size + _SLIVER) + 1):
            for cy in range(floor((y - radius) / size - _SLIVER),
                            floor((y + radius) / size + _SLIVER) + 1):
                bucket = cells.get((cx, cy))
                if bucket:
                    for entry in bucket:
                        dx = entry[1] - x
                        dy = entry[2] - y
                        if dx * dx + dy * dy <= r2:
                            statics.append(entry)
        movers: List[tuple] = []
        if not self._movers:
            return statics, movers
        v_max = self._v_max
        if v_max is None:
            v_max = self.speed_bound()
        if v_max == inf:
            candidates = [self._movers.values()]
        else:
            since = self.bucketed_at
            if since is None or not (
                    0.0 <= v_max * (now - since) <= REBUCKET_SHARE * size):
                self._rebucket(now)
                since = now
            wide = reach + v_max * (now - since)
            mover_cells = self._mover_cells
            candidates = []
            for cx in range(floor((x - wide) / size - _SLIVER),
                            floor((x + wide) / size + _SLIVER) + 1):
                for cy in range(floor((y - wide) / size - _SLIVER),
                                floor((y + wide) / size + _SLIVER) + 1):
                    bucket = mover_cells.get((cx, cy))
                    if bucket:
                        candidates.append(bucket)
        r2 = reach * reach
        for bucket in candidates:
            for entry in bucket:
                params = entry[1]
                if params is None:
                    position = entry[2].position_at(now)
                    dx = position.x - x
                    dy = position.y - y
                else:
                    # LinearMobility.position_at, operation for operation.
                    x0, y0, vx, vy, t0 = params
                    dt = now - t0
                    if dt < 0.0:
                        dt = 0.0
                    dx = x0 + vx * dt - x
                    dy = y0 + vy * dt - y
                if dx * dx + dy * dy <= r2:
                    movers.append(entry)
        return statics, movers

    def query_circle_ordered(
        self, x: float, y: float, radius: float, now: float,
    ) -> List[Any]:
        """Nodes within ``radius`` of (x, y) at ``now``, inclusive, in
        attachment order."""
        hits, movers = self._near(x, y, radius, radius, now)
        hits += movers
        # Entries lead with their unique attach seq: the sort compares ints.
        hits.sort()
        return list(map(self._node_of.__getitem__, map(_ID, hits)))

    def query_neighbourhood(
        self, origin_id: str, x: float, y: float, radius: float,
        reach: float, now: float,
    ) -> Tuple[List[str], List[Any]]:
        """A static origin at (x, y): its neighbour memo entry, at ``now``.

        Returns ``(statics, movers)``, by node id. ``statics`` are the
        static nodes within ``radius``, ``origin_id`` excluded, in
        attachment order. ``movers`` is one flat list ``[at, node_id,
        params, ...]`` over every mover within ``reach``, in attachment
        order: ``at`` is how many of ``statics`` were attached before it,
        ``params`` its :func:`~repro.netsim.mobility.linear_params`, or None
        when it has no closed form.
        """
        statics, near_movers = self._near(x, y, radius, reach, now)
        statics.sort()
        near_movers.sort()
        ids: List[str] = []
        seqs: List[int] = []
        for seq, _x, _y, node_id in statics:
            if node_id != origin_id:
                ids.append(node_id)
                seqs.append(seq)
        movers: List[Any] = []
        for seq, params, _model, node_id in near_movers:
            movers += (bisect_left(seqs, seq), node_id, params)
        return ids, movers
