"""Vectorized node-position index: the numpy medium backend.

The scalar :class:`~repro.netsim.spatialindex.SpatialHashGrid` answers range
queries one Python dict probe and float compare at a time. At swarm scale
(10k–100k nodes, ROADMAP item 2) the per-node interpreter overhead of that
loop — and of re-evaluating every mobile node's Python ``position_at`` per
timestamp — dominates runs. This module keeps the same information in
contiguous numpy arrays instead:

* positions live in slot-addressed ``float64`` arrays (``_x``/``_y``), where
  a node's **slot is its attachment sequence number** — so a sorted slot
  array *is* attachment order, and the medium's documented neighbor
  ordering costs an ``ndarray.sort`` instead of a keyed Python sort;
* static nodes are bucketed into grid cells (cell side = radio range, the
  same 3x3-block scheme as the scalar grid), so a query gathers a few
  bucket lists and distance-filters them in one vector expression;
* nodes with closed-form kinematics (:class:`LinearMobility`, via
  :func:`repro.netsim.mobility.linear_params`) are refreshed for a new
  timestamp with a single ``x0 + vx * max(0, t - t0)`` array expression —
  no per-node Python at all; only models without a closed form (paths,
  random waypoint) fall back to per-node ``position_at`` calls.

**Bit-for-bit equivalence with the scalar path is a hard contract** (the
equivalence suite in ``tests/test_vector_medium.py`` enforces it): the
distance filter is ``dx*dx + dy*dy <= r*r`` in both backends (identical
IEEE-754 operation order), and the linear-kinematics expression mirrors
``LinearMobility.position_at`` operation for operation. Queries return the
same nodes in the same order as the scalar grid + attach-sequence sort.

numpy is optional (the ``[scale]`` extra), and this is the only module that
imports it. The medium imports this module only when it is forced onto the
vector index or, by default, when its world reaches
:data:`~repro.netsim.medium.VECTOR_FROM_NODES` nodes; when numpy is
missing, :func:`available` is False and a default medium stays scalar.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple

try:  # numpy is an optional dependency (the [scale] extra)
    import numpy as _np
except ImportError:  # pragma: no cover - CI's test-no-numpy job
    _np = None

from repro.errors import ConfigurationError
from repro.netsim.mobility import is_time_varying, linear_params

Cell = Tuple[int, int]

#: Below this many candidates a vectorized filter costs more than it saves;
#: the query drops to a plain Python loop over the same arrays (same
#: arithmetic, so results are unchanged).
_SMALL_QUERY = 24


def available() -> bool:
    """True when numpy is importable and the vector backend can be used."""
    return _np is not None


class VectorPositionIndex:
    """Slot-addressed position store with grid-bucketed vectorized queries.

    The owner (:class:`~repro.netsim.medium.WirelessMedium`) classifies each
    node on insert/move: *static* (bucketed), *linear* (array kinematics),
    or *fallback* (Python ``position_at`` per refresh). Slots are handed out
    monotonically and never reused while live, so ascending slot order is
    attachment order; detach tombstones a slot and a compaction sweep
    renumbers when tombstones outnumber live entries (relative order — and
    therefore query ordering — is preserved).
    """

    def __init__(self, cell_size: float):
        if _np is None:
            raise ConfigurationError(
                "numpy is not installed; install the [scale] extra or use "
                "the scalar medium backend"
            )
        if not cell_size > 0:
            raise ConfigurationError(
                f"cell size must be positive, got {cell_size!r}"
            )
        self.cell_size = cell_size
        capacity = 64
        self._x = _np.zeros(capacity, dtype=_np.float64)
        self._y = _np.zeros(capacity, dtype=_np.float64)
        self._next_slot = 0
        self._live = 0
        self._slot_of: Dict[str, int] = {}
        self._node_of: Dict[int, Any] = {}
        # Static slots, bucketed by cell.
        self._cells: Dict[Cell, List[int]] = {}
        self._cell_of: Dict[int, Cell] = {}
        # Time-varying slots.
        self._linear: Dict[int, Tuple[float, float, float, float, float]] = {}
        self._fallback: Dict[int, Any] = {}  # slot -> mobility model
        self._lin_arrays: Optional[Tuple[Any, ...]] = None  # lazy kinematics
        self._dyn_slots: Optional[Any] = None  # lazy: all time-varying slots
        # (dyn slots, their x, their y) as of the last refresh, lazily.
        self._dyn_xy: Optional[Tuple[Any, Any, Any]] = None
        #: Virtual time of the last refresh; None while one is owed.
        self.refreshed_at: Optional[float] = None

    def __len__(self) -> int:
        return self._live

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._slot_of

    # ------------------------------------------------------------ membership

    def insert(self, node: Any) -> None:
        node_id = node.node_id
        if node_id in self._slot_of:
            raise ConfigurationError(f"{node_id!r} is already in the index")
        slot = self._next_slot
        self._next_slot = slot + 1
        if slot >= len(self._x):
            self._x = _np.concatenate([self._x, _np.zeros(len(self._x))])
            self._y = _np.concatenate([self._y, _np.zeros(len(self._y))])
        self._slot_of[node_id] = slot
        self._node_of[slot] = node
        self._live += 1
        self._classify(slot, node)

    def remove(self, node_id: str) -> None:
        slot = self._slot_of.pop(node_id, None)
        if slot is None:
            return
        self._declassify(slot)
        del self._node_of[slot]
        self._live -= 1
        dead = self._next_slot - self._live
        if dead > 64 and dead > self._live:
            self._compact()

    def note_moved(self, node: Any) -> None:
        """Re-classify after an explicit reposition / mobility swap."""
        slot = self._slot_of.get(node.node_id)
        if slot is None:
            return
        self._declassify(slot)
        self._classify(slot, node)

    # -------------------------------------------------------- classification

    def _classify(self, slot: int, node: Any) -> None:
        mobility = node.mobility
        if not is_time_varying(mobility):
            position = node.position
            x, y = position.x, position.y
            self._x[slot] = x
            self._y[slot] = y
            size = self.cell_size
            cell = (int(x // size), int(y // size))
            self._cell_of[slot] = cell
            bucket = self._cells.get(cell)
            if bucket is None:
                self._cells[cell] = [slot]
            else:
                bucket.append(slot)
            return
        params = linear_params(mobility)
        if params is not None:
            self._linear[slot] = params
            self._lin_arrays = None
        else:
            self._fallback[slot] = mobility
        self._dyn_slots = None
        self.refreshed_at = None  # force a refresh before the next query

    def _declassify(self, slot: int) -> None:
        cell = self._cell_of.pop(slot, None)
        if cell is not None:
            bucket = self._cells[cell]
            bucket.remove(slot)
            if not bucket:
                del self._cells[cell]
            return
        if self._linear.pop(slot, None) is not None:
            self._lin_arrays = None
        else:
            self._fallback.pop(slot, None)
        self._dyn_slots = None

    def _compact(self) -> None:
        """Renumber live slots densely, preserving relative (attach) order."""
        nodes = [self._node_of[slot] for slot in sorted(self._node_of)]
        self._next_slot = 0
        self._live = 0
        self._slot_of.clear()
        self._node_of.clear()
        self._cells.clear()
        self._cell_of.clear()
        self._linear.clear()
        self._fallback.clear()
        self._lin_arrays = None
        self._dyn_slots = None
        self.refreshed_at = None
        for node in nodes:
            self.insert(node)

    # --------------------------------------------------------------- refresh

    def refresh(self, now: float) -> None:
        """Bring every time-varying slot's position up to ``now``.

        Linear slots update in one array expression; fallback slots loop
        Python ``position_at``. At most once per distinct timestamp.
        """
        if now == self.refreshed_at:
            return
        if self._linear:
            arrays = self._lin_arrays
            if arrays is None:
                slots = _np.fromiter(self._linear, dtype=_np.intp,
                                     count=len(self._linear))
                slots.sort()
                params = _np.array(
                    [self._linear[int(slot)] for slot in slots],
                    dtype=_np.float64,
                ).reshape(len(slots), 5)
                arrays = self._lin_arrays = (
                    slots, params[:, 0], params[:, 1],
                    params[:, 2], params[:, 3], params[:, 4],
                )
            slots, x0, y0, vx, vy, t0 = arrays
            dt = _np.maximum(0.0, now - t0)
            self._x[slots] = x0 + vx * dt
            self._y[slots] = y0 + vy * dt
        if self._fallback:
            x_arr = self._x
            y_arr = self._y
            for slot, model in self._fallback.items():
                position = model.position_at(now)
                x_arr[slot] = position.x
                y_arr[slot] = position.y
        self._dyn_xy = None
        self.refreshed_at = now

    # ---------------------------------------------------------------- queries

    def _static_block(self, x: float, y: float, radius: float) -> List[int]:
        """Static slots bucketed in the cells a ``radius`` circle touches."""
        size = self.cell_size
        cells = self._cells
        cx_lo = int((x - radius) // size)
        cx_hi = int((x + radius) // size)
        cy_lo = int((y - radius) // size)
        cy_hi = int((y + radius) // size)
        candidates: List[int] = []
        for cx in range(cx_lo, cx_hi + 1):
            for cy in range(cy_lo, cy_hi + 1):
                bucket = cells.get((cx, cy))
                if bucket:
                    candidates.extend(bucket)
        return candidates

    def _dyn(self) -> Optional[Any]:
        """Every time-varying slot, ascending (None when there is none)."""
        dyn = self._dyn_slots
        if dyn is None and (self._linear or self._fallback):
            dyn = _np.fromiter(
                sorted(list(self._linear) + list(self._fallback)),
                dtype=_np.intp,
                count=len(self._linear) + len(self._fallback),
            )
            self._dyn_slots = dyn
        return dyn

    def _within(
        self, slots: Any, x: float, y: float, radius: float,
    ) -> List[int]:
        """The ``slots`` within ``radius`` of (x, y), ascending.

        One vector expression, or a same-arithmetic Python loop when the
        candidate set is tiny.
        """
        r2 = radius * radius
        x_arr = self._x
        y_arr = self._y
        if len(slots) < _SMALL_QUERY:
            if isinstance(slots, _np.ndarray):
                slots = slots.tolist()
            hits = []
            for slot in slots:
                dx = x_arr[slot] - x
                dy = y_arr[slot] - y
                if dx * dx + dy * dy <= r2:
                    hits.append(slot)
            hits.sort()
            return hits
        if not isinstance(slots, _np.ndarray):
            slots = _np.fromiter(slots, dtype=_np.intp, count=len(slots))
        dx = x_arr[slots] - x
        dy = y_arr[slots] - y
        hits_arr = slots[dx * dx + dy * dy <= r2]
        hits_arr.sort()
        return hits_arr.tolist()

    def query_circle_ordered(self, x: float, y: float, radius: float) -> List[Any]:
        """Nodes within ``radius`` of (x, y), inclusive, in attachment order.

        Candidates are the 3x3 static cell block around the origin plus
        every time-varying slot.
        """
        candidates = self._static_block(x, y, radius)
        dyn = self._dyn()
        if dyn is not None:
            candidates = (
                _np.concatenate([_np.array(candidates, dtype=_np.intp), dyn])
                if candidates else dyn
            )
        return list(map(self._node_of.__getitem__,
                        self._within(candidates, x, y, radius)))

    def query_neighbourhood(
        self, origin_id: str, x: float, y: float, radius: float, reach: float,
    ) -> Tuple[List[str], List[Any]]:
        """A static origin at (x, y): its neighbour memo entry.

        Returns ``(statics, movers)``, by node id. ``statics`` are the
        static nodes within ``radius``, ``origin_id`` excluded, in
        attachment order. ``movers`` is one flat list ``[at, node_id,
        params, ...]`` over every time-varying node within ``reach``
        (positions as of the last refresh), in attachment order: ``at`` is
        how many of ``statics`` were attached before it, ``params`` its
        :func:`linear_params`, or None when it has no closed form. The
        distance arithmetic is :meth:`query_circle_ordered`'s.
        """
        hits = self._within(self._static_block(x, y, radius), x, y, radius)
        hits.remove(self._slot_of[origin_id])
        node_of = self._node_of
        movers: List[Any] = []
        dyn = self._dyn()
        if dyn is not None:
            # Gathered once per refresh: the builds in between share it.
            cache = self._dyn_xy
            if cache is None or cache[0] is not dyn:
                cache = self._dyn_xy = (dyn, self._x[dyn], self._y[dyn])
            dx = cache[1] - x
            dy = cache[2] - y
            linear = self._linear
            for slot in dyn[dx * dx + dy * dy <= reach * reach].tolist():
                movers += (bisect_left(hits, slot), node_of[slot].node_id,
                           linear.get(slot))
        return [node_of[slot].node_id for slot in hits], movers
