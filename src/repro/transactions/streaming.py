"""Multimedia data streams (Section 3.10).

The paper's miscellaneous requirements include "multimedia data streams"
among the application types middleware must serve, with the §3.4
observation that real-time data is valuable only if it arrives in time.
This module provides the streaming pair:

* :class:`StreamingSource` — emits fixed-size media frames at a constant
  rate (CBR) over any transport, sequence-numbered and timestamped;
* :class:`StreamingSink` — receives frames into a **jitter buffer**: play-
  out of frame *k* happens at ``first_frame_arrival + playout_delay_s +
  k * frame_interval``; a frame that misses its slot is a **late drop**, a
  missing frame is an **underrun**. The continuity metric (frames played on
  time / frames expected) is the standard streaming-quality figure, and the
  playout delay is the knob trading latency for continuity.

Frames are tiny binary headers + opaque payload (codec-free: media bytes
are not structured data)::

    u32 seq | f64 media timestamp | payload
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.transport.base import Address, Transport

_HEADER = struct.Struct(">Id")

#: Accounted per-frame overhead of the streaming header.
STREAM_HEADER_BYTES = _HEADER.size
#: Media payload bytes per frame, after the header.
FRAME_PAYLOAD_BYTES = 512
#: Empty playout slots in a row after which the sink takes the stream as
#: ended and rolls those slots back out of its underruns.
STALL_LIMIT = 25


class StreamingSource:
    """Emits a CBR media stream to one sink."""

    def __init__(
        self,
        transport: Transport,
        sink: Address,
        frame_interval_s: float = 0.04,  # 25 fps
        total_frames: Optional[int] = None,
    ):
        if frame_interval_s <= 0:
            raise ConfigurationError(
                f"frame interval must be positive, got {frame_interval_s!r}"
            )
        self.transport = transport
        self.sink = sink
        self.frame_interval_s = frame_interval_s
        self.total_frames = total_frames
        self.frames_sent = 0
        self._running = False

    def start(self) -> None:
        """Begin emitting frames on the transport's scheduler."""
        if self._running:
            return
        self._running = True
        self._emit()

    def stop(self) -> None:
        self._running = False

    def _emit(self) -> None:
        if not self._running or self.transport.closed:
            return
        if self.total_frames is not None and self.frames_sent >= self.total_frames:
            self._running = False
            return
        seq = self.frames_sent
        timestamp = seq * self.frame_interval_s
        payload = _HEADER.pack(seq, timestamp) + bytes(FRAME_PAYLOAD_BYTES)
        self.transport.send(self.sink, payload)
        self.frames_sent += 1
        self.transport.scheduler.schedule(self.frame_interval_s, self._emit)


class StreamingSink:
    """Receives frames into a jitter buffer and plays them on schedule."""

    def __init__(
        self,
        transport: Transport,
        frame_interval_s: float = 0.04,
        playout_delay_s: float = 0.2,
    ):
        if playout_delay_s < 0:
            raise ConfigurationError(
                f"playout delay must be >= 0, got {playout_delay_s!r}"
            )
        self.transport = transport
        self.frame_interval_s = frame_interval_s
        self.playout_delay_s = playout_delay_s
        self._buffer: Dict[int, float] = {}  # seq -> arrival time
        self._playout_started = False
        self._playout_stopped = False
        self._next_seq = 0
        self._trailing_misses = 0
        self.frames_received = 0
        self.frames_played = 0
        self.late_drops = 0
        self.underruns = 0
        self.latencies: List[float] = []
        transport.set_receiver(self._on_frame)

    # -------------------------------------------------------------- receive

    def _now(self) -> float:
        return self.transport.scheduler.now()

    def _on_frame(self, source: Address, payload: bytes) -> None:
        if len(payload) < _HEADER.size:
            return
        seq, _timestamp = _HEADER.unpack_from(payload, 0)
        now = self._now()
        self.frames_received += 1
        if seq < self._next_seq:
            # Its playout slot already passed (or it's a duplicate).
            if seq not in self._buffer:
                self.late_drops += 1
            return
        if seq in self._buffer:
            return
        self._buffer[seq] = now
        if not self._playout_started:
            self._playout_started = True
            self.transport.scheduler.schedule(self.playout_delay_s, self._play_tick)

    # --------------------------------------------------------------- playout

    def _play_tick(self) -> None:
        if self.transport.closed or self._playout_stopped:
            return
        seq = self._next_seq
        arrival = self._buffer.pop(seq, None)
        if arrival is not None:
            self.frames_played += 1
            self.latencies.append(self._now() - arrival)
            self._trailing_misses = 0
        else:
            self.underruns += 1
            if self._buffer:
                # Later frames exist: a genuine mid-stream glitch.
                self._trailing_misses = 0
            else:
                # Nothing buffered at all: possibly the stream ended.
                self._trailing_misses += 1
                if self._trailing_misses >= STALL_LIMIT:
                    # End of stream: the trailing empty slots were not
                    # playback glitches — roll them back and stop. The
                    # current slot was never advanced past, hence the -1.
                    self.underruns -= self._trailing_misses
                    self._next_seq -= self._trailing_misses - 1
                    self._trailing_misses = 0
                    self._playout_stopped = True
                    return
        self._next_seq += 1
        self.transport.scheduler.schedule(self.frame_interval_s, self._play_tick)

    # --------------------------------------------------------------- metrics

    @property
    def frames_expected(self) -> int:
        """Playout slots elapsed since the stream began.

        Trailing empty slots (a possibly-ended stream) are excluded as they
        accrue; if frames resume, they are re-counted as real underruns.
        """
        return self._next_seq - self._trailing_misses

    def continuity(self) -> float:
        """Frames played on time / playout slots (1.0 = glitch-free)."""
        expected = self.frames_expected
        if expected <= 0:
            return 0.0
        return self.frames_played / expected

    def mean_buffer_wait_s(self) -> float:
        """Average time frames sat in the jitter buffer before playout."""
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)
