"""Tests for multimedia streaming with jitter buffering (§3.10)."""

import pytest

from repro.errors import ConfigurationError
from repro.netsim import topology
from repro.netsim.medium import IDEAL_RADIO, RadioProfile
from repro.transactions.streaming import STALL_LIMIT, StreamingSink, StreamingSource
from repro.transport.inmemory import InMemoryFabric
from repro.transport.simnet import SimFabric


def stream_over(fabric, run_until, frames=50, playout_delay=0.2, interval=0.04,
                sink_name="sink", source_name="source"):
    sink_transport = fabric.endpoint(sink_name, "media")
    sink = StreamingSink(sink_transport, frame_interval_s=interval,
                         playout_delay_s=playout_delay)
    source = StreamingSource(
        fabric.endpoint(source_name, "media"), sink_transport.local_address,
        frame_interval_s=interval, total_frames=frames,
    )
    source.start()
    run_until(frames * interval + playout_delay + 1.0)
    return source, sink


class TestStreamingCleanChannel:
    def test_perfect_continuity_on_clean_channel(self):
        fabric = InMemoryFabric(latency_s=0.005)
        source, sink = stream_over(fabric, lambda t: fabric.sim.run_until(t))
        assert source.frames_sent == 50
        assert sink.frames_played == 50
        assert sink.continuity() == pytest.approx(1.0)
        assert sink.underruns == 0 and sink.late_drops == 0

    def test_buffer_wait_close_to_playout_delay(self):
        fabric = InMemoryFabric(latency_s=0.005)
        _source, sink = stream_over(fabric, lambda t: fabric.sim.run_until(t),
                                    playout_delay=0.3)
        # Constant latency: every frame waits ~playout_delay in the buffer.
        assert sink.mean_buffer_wait_s() == pytest.approx(0.3, abs=0.05)

    def test_stop_halts_emission(self):
        fabric = InMemoryFabric()
        sink_transport = fabric.endpoint("sink", "media")
        StreamingSink(sink_transport)
        source = StreamingSource(fabric.endpoint("src", "media"),
                                 sink_transport.local_address,
                                 total_frames=None)
        source.start()
        fabric.sim.run_until(1.0)
        source.stop()
        sent = source.frames_sent
        fabric.sim.run_until(5.0)
        assert source.frames_sent == sent

    def test_validation(self):
        fabric = InMemoryFabric()
        with pytest.raises(ConfigurationError):
            StreamingSource(fabric.endpoint("a", "m"), None, frame_interval_s=0)
        with pytest.raises(ConfigurationError):
            StreamingSink(fabric.endpoint("b", "m"), playout_delay_s=-1)


class TestStreamingLossyChannel:
    def lossy_run(self, loss, playout_delay, seed=3):
        fabric = InMemoryFabric(latency_s=0.01, loss_probability=loss, seed=seed)
        return stream_over(fabric, lambda t: fabric.sim.run_until(t),
                           frames=200, playout_delay=playout_delay)

    def test_loss_becomes_underruns(self):
        _source, sink = self.lossy_run(loss=0.2, playout_delay=0.2)
        assert sink.underruns > 10
        assert 0.6 < sink.continuity() < 0.95

    def test_continuity_degrades_with_loss(self):
        _s0, clean = self.lossy_run(loss=0.0, playout_delay=0.2)
        _s1, lossy = self.lossy_run(loss=0.3, playout_delay=0.2)
        assert clean.continuity() > lossy.continuity()


class TestStreamingJitter:
    def jitter_run(self, playout_delay, seed=5):
        # Heavy contention jitter: per-frame delivery delay varies by up to
        # 150 ms, far beyond the 40 ms frame interval.
        profile = RadioProfile("jittery", bandwidth_bps=11e6, range_m=100.0,
                               base_latency_s=0.001,
                               contention_window_s=0.15)
        network = topology.star(2, radius=40, radio_profile=profile, seed=seed)
        fabric = SimFabric(network)
        return stream_over(
            fabric, lambda t: network.sim.run_until(t), frames=150,
            playout_delay=playout_delay,
            sink_name="leaf0", source_name="leaf1",
        )

    def test_small_buffer_glitches_large_buffer_does_not(self):
        """The jitter-buffer tradeoff: latency buys continuity."""
        _s0, tight = self.jitter_run(playout_delay=0.02)
        _s1, roomy = self.jitter_run(playout_delay=0.5)
        assert roomy.continuity() > tight.continuity()
        assert roomy.continuity() > 0.97
        assert tight.late_drops + tight.underruns > 0
        # And the price is buffer latency.
        assert roomy.mean_buffer_wait_s() > tight.mean_buffer_wait_s()


class TestStreamingLifecycle:
    """Backpressure, cancellation, and mid-stream crashes."""

    def test_backpressure_buffer_absorbs_burst_then_drains(self):
        # A playout delay much longer than the stream: every frame arrives
        # before the first one plays, so the jitter buffer must absorb the
        # whole stream, then drain it on schedule without dropping any.
        fabric = InMemoryFabric(latency_s=0.001)
        sink_transport = fabric.endpoint("sink", "media")
        sink = StreamingSink(sink_transport, frame_interval_s=0.04,
                             playout_delay_s=2.0)
        source = StreamingSource(fabric.endpoint("src", "media"),
                                 sink_transport.local_address,
                                 frame_interval_s=0.04, total_frames=30)
        source.start()
        fabric.sim.run_until(30 * 0.04 + 0.1)
        # All frames sent and received; almost nothing played yet.
        assert sink.frames_received == 30
        backlog = len(sink._buffer)
        assert backlog >= 25
        fabric.sim.run_until(10.0)
        assert sink.frames_played == 30
        assert sink.late_drops == 0 and sink.underruns == 0
        assert len(sink._buffer) == 0
        # Every frame waited roughly the playout delay under backpressure.
        assert sink.mean_buffer_wait_s() > 1.0

    def test_cancel_sink_mid_stream(self):
        fabric = InMemoryFabric(latency_s=0.005)
        sink_transport = fabric.endpoint("sink", "media")
        sink = StreamingSink(sink_transport, frame_interval_s=0.04,
                             playout_delay_s=0.1)
        source = StreamingSource(fabric.endpoint("src", "media"),
                                 sink_transport.local_address,
                                 frame_interval_s=0.04, total_frames=100)
        source.start()
        fabric.sim.run_until(1.0)
        played_at_close = sink.frames_played
        assert played_at_close > 0
        sink_transport.close()
        fabric.sim.run_until(10.0)
        # Playout halted at close; no further frames played, no errors.
        assert sink.frames_played == played_at_close
        # The source kept emitting into the void without blowing up.
        assert source.frames_sent == 100

    def test_cancel_source_mid_stream(self):
        fabric = InMemoryFabric(latency_s=0.005)
        sink_transport = fabric.endpoint("sink", "media")
        sink = StreamingSink(sink_transport, frame_interval_s=0.04,
                             playout_delay_s=0.1)
        source = StreamingSource(fabric.endpoint("src", "media"),
                                 sink_transport.local_address,
                                 frame_interval_s=0.04, total_frames=None)
        source.start()
        fabric.sim.run_until(1.0)
        source.stop()
        sent = source.frames_sent
        fabric.sim.run_until(10.0)
        # The stall detector rolls back trailing empty slots: the cut-off
        # stream scores clean, not as a burst of underruns.
        assert sink.frames_played == sent
        assert sink.continuity() == pytest.approx(1.0)

    def test_playout_stops_after_stall_limit_empty_slots(self):
        fabric = InMemoryFabric(latency_s=0.005)
        sink_transport = fabric.endpoint("sink", "media")
        sink = StreamingSink(sink_transport, frame_interval_s=0.04,
                             playout_delay_s=0.1)
        source = StreamingSource(fabric.endpoint("src", "media"),
                                 sink_transport.local_address,
                                 frame_interval_s=0.04, total_frames=None)
        source.start()
        fabric.sim.run_until(1.0)
        source.stop()
        fabric.sim.run_until(1.2)  # the last frame has played out
        underruns = []
        for _ in range(STALL_LIMIT + 10):
            fabric.sim.run_for(0.04)  # one playout slot
            underruns.append(sink.underruns)
        # Each empty slot counts until the STALL_LIMIT-th ends the stream
        # and rolls them all back.
        assert max(underruns) == STALL_LIMIT - 1
        assert underruns[-1] == 0

    def test_mid_stream_sink_crash_and_recovery(self):
        from repro.netsim.failures import FailureInjector

        network = topology.star(2, radius=40, radio_profile=IDEAL_RADIO)
        fabric = SimFabric(network)
        sink_transport = fabric.endpoint("leaf0", "media")
        sink = StreamingSink(sink_transport, frame_interval_s=0.04,
                             playout_delay_s=0.2)
        source = StreamingSource(fabric.endpoint("leaf1", "media"),
                                 sink_transport.local_address,
                                 frame_interval_s=0.04, total_frames=200)
        injector = FailureInjector(network, seed=1)
        injector.crash_and_recover("leaf0", crash_at=2.0, downtime=1.0)
        source.start()
        network.sim.run_until(200 * 0.04 + 2.0)
        # Frames sent during the outage are gone: underruns, not a wedge.
        assert source.frames_sent == 200
        assert sink.frames_received < 200
        assert sink.underruns >= 20
        # The stream resumed after recovery: later frames played fine.
        assert sink.frames_played >= 150
        assert 0.5 < sink.continuity() < 1.0
