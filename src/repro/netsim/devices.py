"""Location/tracking/sensing devices: RFID tags and GPS (Section 2).

The paper's technology review singles out two device classes feeding
ubiquitous middleware:

* "Tags use radio frequency identification (RFID) for tracking everything
  from packages to livestock. They now contain onboard memory and have
  anti-collision mechanisms to allow multiple e-tags to be read in the same
  space."
* "The global positioning system (GPS) provides high-accuracy location
  data and can detect an object's presence and its position."

:class:`RfidReader` models an inventory round over the passive tags within
range using **framed slotted ALOHA** — the standard anti-collision scheme:
each round the reader announces a frame of N slots, every tag picks a slot
uniformly at random, singleton slots are read successfully, collided tags
retry in the next round (frame size adapting to the estimated backlog).

:class:`GpsDevice` wraps a node's true simulated position with zero-mean
Gaussian error and an acquisition/availability model, producing the
position *readings* a middleware location service would actually ingest.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.netsim.node import Node
from repro.util.geometry import Point
from repro.util.rng import split_rng


class RfidTag:
    """A passive tag: an id, a position, and a little onboard memory."""

    __slots__ = ("tag_id", "position", "memory")

    def __init__(self, tag_id: str, position: Point,
                 memory: Optional[Dict[str, str]] = None) -> None:
        self.tag_id = tag_id
        self.position = position
        self.memory = {} if memory is None else memory
        if not self.tag_id:
            raise ConfigurationError("tag_id must be non-empty")


class InventoryResult:
    """Outcome of one full inventory (until no tag is left unread)."""

    __slots__ = ("read_tags", "rounds", "total_slots", "collisions",
                 "empty_slots")

    def __init__(self, read_tags: Tuple[str, ...], rounds: int,
                 total_slots: int, collisions: int, empty_slots: int) -> None:
        self.read_tags = read_tags
        self.rounds = rounds
        self.total_slots = total_slots
        self.collisions = collisions
        self.empty_slots = empty_slots

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.read_tags, self.rounds, self.total_slots, self.collisions,
             self.empty_slots)
            == (other.read_tags, other.rounds, other.total_slots,
                other.collisions, other.empty_slots)
        )

    def __hash__(self) -> int:
        return hash((self.read_tags, self.rounds, self.total_slots,
                     self.collisions, self.empty_slots))

#: Slots in a reader's first inventory frame, and the most any frame gets.
INITIAL_FRAME_SIZE = 8
MAX_FRAME_SIZE = 256


class RfidReader:
    """A reader with a circular field and framed-slotted-ALOHA inventory."""

    def __init__(
        self,
        position: Point,
        range_m: float = 3.0,
        seed: int = 0,
    ):
        if range_m <= 0:
            raise ConfigurationError(f"range must be positive, got {range_m!r}")
        self.position = position
        self.range_m = range_m
        self._rng = split_rng(seed, "rfid-reader")
        self._tags: List[RfidTag] = []

    def place_tag(self, tag: RfidTag) -> None:
        self._tags.append(tag)

    def tags_in_field(self) -> List[RfidTag]:
        return [
            tag for tag in self._tags
            if tag.position.distance_to(self.position) <= self.range_m
        ]

    # -------------------------------------------------------------- inventory

    def inventory(self, max_rounds: int = 64) -> InventoryResult:
        """Read every tag in the field despite collisions.

        Each round: the unread backlog picks slots uniformly in the current
        frame; singletons are read, collisions retry. The next frame size is
        the collided-slot count x 2 (the classic backlog estimate: each
        collision hides >= 2 tags), clamped to [1, MAX_FRAME_SIZE].
        """
        backlog: List[RfidTag] = list(self.tags_in_field())
        read: List[str] = []
        frame_size = INITIAL_FRAME_SIZE
        rounds = total_slots = collisions = empty = 0
        while backlog and rounds < max_rounds:
            rounds += 1
            total_slots += frame_size
            slots: Dict[int, List[RfidTag]] = {}
            for tag in backlog:
                slots.setdefault(self._rng.randrange(frame_size), []).append(tag)
            next_backlog: List[RfidTag] = []
            collided_slots = 0
            for slot in range(frame_size):
                occupants = slots.get(slot, [])
                if not occupants:
                    empty += 1
                elif len(occupants) == 1:
                    read.append(occupants[0].tag_id)
                else:
                    collided_slots += 1
                    collisions += 1
                    next_backlog.extend(occupants)
            backlog = next_backlog
            frame_size = max(1, min(MAX_FRAME_SIZE, 2 * collided_slots))
        return InventoryResult(
            read_tags=tuple(read),
            rounds=rounds,
            total_slots=total_slots,
            collisions=collisions,
            empty_slots=empty,
        )

    def read_memory(self, tag_id: str, key: str) -> Optional[str]:
        """Read one key from an in-field tag's onboard memory."""
        for tag in self.tags_in_field():
            if tag.tag_id == tag_id:
                return tag.memory.get(key)
        return None


class GpsDevice:
    """Position readings with error, acquisition time, and availability.

    Attaches to a simulated node (whose true position may follow a mobility
    model) and reports noisy fixes:

    * zero-mean Gaussian error with standard deviation ``accuracy_m`` on
      each axis;
    * no fix before ``acquisition_s`` after power-on (cold start);
    * each attempted fix fails with ``outage_probability`` (canyons, foliage).
    """

    def __init__(
        self,
        node: Node,
        accuracy_m: float = 5.0,
        acquisition_s: float = 30.0,
        outage_probability: float = 0.0,
        seed: int = 0,
    ):
        if accuracy_m < 0:
            raise ConfigurationError(f"accuracy must be >= 0, got {accuracy_m!r}")
        if not 0.0 <= outage_probability < 1.0:
            raise ConfigurationError(
                f"outage probability must be in [0, 1), got {outage_probability!r}"
            )
        self.node = node
        self.accuracy_m = accuracy_m
        self.acquisition_s = acquisition_s
        self.outage_probability = outage_probability
        self._rng = split_rng(seed, f"gps:{node.node_id}")
        self._powered_on_at = node.sim.now()
        self.fixes = 0
        self.failed_fixes = 0

    @property
    def acquired(self) -> bool:
        return self.node.sim.now() - self._powered_on_at >= self.acquisition_s

    def fix(self) -> Optional[Point]:
        """One position reading; None before acquisition or during outage."""
        if not self.acquired:
            self.failed_fixes += 1
            return None
        if self.outage_probability and self._rng.random() < self.outage_probability:
            self.failed_fixes += 1
            return None
        true = self.node.position
        self.fixes += 1
        return Point(
            true.x + self._rng.gauss(0.0, self.accuracy_m),
            true.y + self._rng.gauss(0.0, self.accuracy_m),
        )

    def mean_fix(self, samples: int = 8) -> Optional[Point]:
        """Average several fixes (the usual accuracy-recovery trick)."""
        points = [p for p in (self.fix() for _ in range(samples)) if p is not None]
        if not points:
            return None
        return Point(
            sum(p.x for p in points) / len(points),
            sum(p.y for p in points) / len(points),
        )
