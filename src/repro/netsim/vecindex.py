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

numpy is optional (the ``[scale]`` extra): when it is missing,
:func:`available` is False and the medium silently stays on the scalar
backend.
"""

from __future__ import annotations

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
        self._time: Optional[float] = None

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
        self._time = None  # force a refresh before the next query

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
        self._time = None
        for node in nodes:
            self.insert(node)

    # --------------------------------------------------------------- refresh

    def refresh(self, now: float) -> None:
        """Bring every time-varying slot's position up to ``now``.

        Linear slots update in one array expression; fallback slots loop
        Python ``position_at``. At most once per distinct timestamp.
        """
        if now == self._time:
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
        self._time = now

    # ---------------------------------------------------------------- queries

    @property
    def all_static(self) -> bool:
        """True while no indexed node has a time-varying mobility model."""
        return not (self._linear or self._fallback)

    def query_circle_ordered(self, x: float, y: float, radius: float) -> List[Any]:
        """Nodes within ``radius`` of (x, y), inclusive, in attachment order.

        Candidates are the 3x3 static cell block around the origin plus
        every time-varying slot; the distance filter runs as one vector
        expression (or a same-arithmetic Python loop when the candidate
        set is tiny).
        """
        size = self.cell_size
        cells = self._cells
        cx_lo = int((x - radius) // size)
        cx_hi = int((x + radius) // size)
        cy_lo = int((y - radius) // size)
        cy_hi = int((y + radius) // size)
        static_candidates: List[int] = []
        for cx in range(cx_lo, cx_hi + 1):
            for cy in range(cy_lo, cy_hi + 1):
                bucket = cells.get((cx, cy))
                if bucket:
                    static_candidates.extend(bucket)
        dyn = self._dyn_slots
        if dyn is None and (self._linear or self._fallback):
            dyn = _np.fromiter(
                sorted(list(self._linear) + list(self._fallback)),
                dtype=_np.intp,
                count=len(self._linear) + len(self._fallback),
            )
            self._dyn_slots = dyn
        r2 = radius * radius
        x_arr = self._x
        y_arr = self._y
        node_of = self._node_of
        n_dyn = 0 if dyn is None else len(dyn)
        if len(static_candidates) + n_dyn < _SMALL_QUERY:
            slots = static_candidates if n_dyn == 0 else (
                static_candidates + [int(s) for s in dyn]
            )
            hits = []
            for slot in slots:
                dx = x_arr[slot] - x
                dy = y_arr[slot] - y
                if dx * dx + dy * dy <= r2:
                    hits.append(slot)
            hits.sort()
            return [node_of[slot] for slot in hits]
        if static_candidates:
            candidates = _np.fromiter(static_candidates, dtype=_np.intp,
                                      count=len(static_candidates))
            if n_dyn:
                candidates = _np.concatenate([candidates, dyn])
        else:
            candidates = dyn
        dx = x_arr[candidates] - x
        dy = y_arr[candidates] - y
        hits_arr = candidates[dx * dx + dy * dy <= r2]
        hits_arr.sort()
        return [node_of[slot] for slot in hits_arr.tolist()]
