"""TCP Reno sender, following the pseudo-code of Stevens, *TCP/IP
Illustrated*, Section 21 — the end system of the paper's Section 4.3
simulations ("The TCP end systems implement Reno according to the pseudo
code specified in Section 21 in [Ste94].  We assume greedy sources where
size of packets is 512 bytes.").

Implemented behaviour:

* slow start and congestion avoidance (cwnd in bytes; +MSS per ACK below
  ssthresh, +MSS²/cwnd per ACK above);
* RTT estimation with Jacobson's mean/deviation filter and Karn's rule
  (no samples from retransmitted segments), exponential RTO backoff;
* fast retransmit on the third duplicate ACK, Reno fast recovery with
  window inflation while dup ACKs arrive;
* retransmission timeout → ssthresh = flight/2, cwnd = 1 MSS, go-back-N;
* the paper's extensions: a CR (current rate) stamp in every data
  segment, measured as acknowledged payload per interval; reaction to
  Source Quench (halve the window, as if a packet was dropped [BP87]);
  and an EFCI-echo mode where a marked ACK suppresses window growth.

The application is greedy: there is always data to send.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import PeriodicTimer, Probe, Simulator
from repro.tcp.link import PacketSink
from repro.tcp.segment import DEFAULT_MSS, Segment


@dataclass(frozen=True, slots=True)
class RenoParams:
    """Sender knobs (defaults: Stevens/BSD behaviour, paper's 512 B MSS)."""

    mss: int = DEFAULT_MSS
    #: Initial congestion window, in segments.
    initial_cwnd: int = 1
    #: Initial slow-start threshold, bytes (effectively "no limit").
    initial_ssthresh: int = 65535
    #: Receiver window, bytes (large: the paper's sources are greedy and
    #: only congestion-limited).
    rwnd: int = 1_000_000
    #: Duplicate-ACK threshold for fast retransmit.
    dupack_threshold: int = 3
    #: RTO bounds (s).  Stevens' 500 ms clock granularity is modelled by
    #: rto_min; set it lower for fine-grained timers.
    rto_min: float = 0.2
    rto_max: float = 60.0
    rto_initial: float = 1.0
    #: CR measurement interval (s): acked payload per interval [paper §4.3].
    rate_interval: float = 0.1
    #: Freeze window growth while ACKs carry the EFCI echo.
    respect_efci: bool = True
    #: Minimum spacing between reactions to Source Quench (s); one srtt
    #: is used when RTT is known, this is the floor before that.
    quench_guard: float = 0.01

    def __post_init__(self) -> None:
        if self.mss < 1:
            raise ValueError(f"mss must be >= 1, got {self.mss!r}")
        if self.initial_cwnd < 1:
            raise ValueError(
                f"initial_cwnd must be >= 1, got {self.initial_cwnd!r}")
        if self.dupack_threshold < 1:
            raise ValueError(
                f"dupack_threshold must be >= 1, "
                f"got {self.dupack_threshold!r}")
        if not 0 < self.rto_min <= self.rto_max:
            raise ValueError("need 0 < rto_min <= rto_max")
        if self.rate_interval <= 0:
            raise ValueError(
                f"rate_interval must be positive, "
                f"got {self.rate_interval!r}")


class TcpRenoSource(PacketSink):
    """Greedy TCP Reno sender for one flow."""

    def __init__(self, sim: Simulator, flow: str,
                 params: RenoParams = RenoParams(),
                 start_time: float = 0.0):
        self.sim = sim
        self.flow = flow
        self.params = params
        self.start_time = start_time
        self.link: PacketSink | None = None

        mss = params.mss
        self.cwnd: float = params.initial_cwnd * mss
        self.ssthresh: float = params.initial_ssthresh
        self.snd_una = 0          # oldest unacknowledged byte
        self.snd_nxt = 0          # next byte to send
        self.dupacks = 0
        self.in_recovery = False
        self.recover = 0

        # RTT estimation (Jacobson/Karn)
        self.srtt: float | None = None
        self.last_rtt: float | None = None
        self.rttvar = 0.0
        self.rto = params.rto_initial
        self._timed_seq: int | None = None
        self._timed_at = 0.0
        self._timing_valid = False
        # Retransmission timer without per-ACK cancel/reschedule churn:
        # _rto_deadline is the authoritative timeout instant (None =
        # disarmed) and _rto_anchor the earliest outstanding wake-up
        # known to be at or before it.  Restarting the timer usually just
        # moves the deadline; the anchor wake-up re-aims itself at the
        # current deadline when it fires early (see _on_rto_fire).
        self._rto_deadline: float | None = None
        self._rto_anchor: float | None = None
        self._rto_cb = self._on_rto_fire

        # the paper's CR stamp
        self.current_rate = 0.0   # Mb/s
        self._acked_at_interval_start = 0

        self._last_quench_reaction = -float("inf")
        self.started = False
        # per-ACK hot-path constants (params is frozen)
        self._mss = mss
        self._rwnd = params.rwnd

        # statistics / instruments
        self.segments_sent = 0
        self.retransmits = 0
        self.timeouts = 0
        self.fast_retransmits = 0
        self.quenches_received = 0
        self.cwnd_probe = Probe(f"{flow}.cwnd")
        self.rate_probe = Probe(f"{flow}.cr")
        self._cwnd_record = self.cwnd_probe.record
        # trace hook, pre-gated on the "tcp" category; only the
        # rare transitions emit (timeout, fast retransmit, recovery
        # exit, quench), never the per-ACK path
        tracer = sim.tracer
        self._tracer = (tracer.gate("tcp") if tracer is not None
                        else None)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach_link(self, link: PacketSink) -> None:
        self.link = link

    def start(self) -> None:
        if self.started:
            raise RuntimeError(f"flow {self.flow} already started")
        if self.link is None:
            raise RuntimeError(f"flow {self.flow} has no link attached")
        self.started = True
        self.sim.schedule_at(
            max(self.start_time, self.sim.now), self._begin)

    def _begin(self) -> None:
        self.cwnd_probe.record(self.sim.now, self.cwnd)
        PeriodicTimer(self.sim, self.params.rate_interval,
                      self._measure_rate).start()
        self._try_send()

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    @property
    def flight_size(self) -> int:
        return self.snd_nxt - self.snd_una

    @property
    def window(self) -> int:
        return int(min(self.cwnd, self.params.rwnd))

    def _try_send(self) -> None:
        # window() inlined: cwnd and snd_una are fixed for the duration
        # of the burst, so the send limit is hoisted out of the loop
        mss = self._mss
        cwnd = self.cwnd
        rwnd = self._rwnd
        limit = self.snd_una + int(cwnd if cwnd < rwnd else rwnd)
        while self.snd_nxt + mss <= limit:
            self._transmit(self.snd_nxt)
            self.snd_nxt += mss

    def _transmit(self, seq: int, is_retransmit: bool = False) -> None:
        # positional (flow, seq, payload, ack, cr): kwarg binding is
        # measurable at one construction per data segment
        segment = Segment(self.flow, seq, self._mss, None,
                          self.current_rate)
        self.segments_sent += 1
        if is_retransmit:
            self.retransmits += 1
            if self._timed_seq is not None and seq <= self._timed_seq:
                self._timing_valid = False  # Karn's rule
        elif self._timed_seq is None or seq > self._timed_seq:
            if self._timed_seq is None:
                self._timed_seq = seq
                self._timed_at = self.sim.now
                self._timing_valid = True
        if self._rto_deadline is None:
            self._arm_rto()
        self.link.receive(segment)

    # ------------------------------------------------------------------
    # retransmission timer
    # ------------------------------------------------------------------
    def _arm_rto(self) -> None:
        deadline = self.sim.now + self.rto
        self._rto_deadline = deadline
        anchor = self._rto_anchor
        if anchor is None or anchor > deadline:
            # no outstanding wake-up covers the deadline; plant one
            self._rto_anchor = deadline
            self.sim.schedule_fast_at(deadline, self._rto_cb)

    def _restart_rto(self) -> None:
        if self.flight_size > 0:
            self._arm_rto()
        else:
            self._rto_deadline = None

    def _on_rto_fire(self) -> None:
        now = self.sim.now
        # exact compare on purpose: the anchor wake-up is recognised by
        # firing at precisely the time it was planted for
        anchor_hit = self._rto_anchor == now
        if anchor_hit:
            self._rto_anchor = None
        deadline = self._rto_deadline
        if deadline is None:
            return
        if now < deadline:
            if anchor_hit:
                # the deadline moved while we slept; re-aim at it so one
                # live wake-up keeps marching toward the timeout.  The
                # re-aim draws its heap sequence number here, at fire
                # time, later than the pre-optimisation kernel drew it
                # (at restart time) — harmless unless the deadline
                # instant exactly ties another event's timestamp (see
                # the tie caveat in docs/PERFORMANCE.md).
                self._rto_anchor = deadline
                self.sim.schedule_fast_at(deadline, self._rto_cb)
            return
        self._rto_deadline = None
        self._on_timeout()

    def _on_timeout(self) -> None:
        if self.flight_size == 0:
            return
        self.timeouts += 1
        mss = self.params.mss
        self.ssthresh = max(self.flight_size / 2, 2 * mss)
        self.cwnd = mss
        self.cwnd_probe.record(self.sim.now, self.cwnd)
        self.dupacks = 0
        self.in_recovery = False
        self.rto = min(self.rto * 2, self.params.rto_max)  # Karn backoff
        self.snd_nxt = self.snd_una  # go-back-N
        self._timing_valid = False
        self._timed_seq = None
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(self.sim.now, "tcp.timeout", self.flow,
                        cwnd=self.cwnd, ssthresh=self.ssthresh,
                        rto=self.rto)
        self._transmit(self.snd_nxt, is_retransmit=True)
        self.snd_nxt += mss
        # _transmit armed a fresh timer (ours was consumed); restart it so
        # exactly one timer is pending and it reflects the backed-off RTO
        self._restart_rto()

    # ------------------------------------------------------------------
    # receiving (ACKs, quench)
    # ------------------------------------------------------------------
    def receive(self, segment: Segment) -> None:
        if segment.is_quench:
            self._on_quench()
            return
        if segment.ack is None:
            raise ValueError(
                f"flow {self.flow} source received a non-ACK segment")
        if segment.ack > self.snd_una:
            self._on_new_ack(segment)
        elif segment.ack == self.snd_una and self.flight_size > 0:
            self._on_dupack()

    def _on_new_ack(self, segment: Segment) -> None:
        ack = segment.ack
        self._update_rtt(ack)
        self.snd_una = ack
        # after go-back-N a cumulative ACK can jump past snd_nxt (the
        # receiver had the tail buffered); never send below snd_una
        if self.snd_nxt < ack:
            self.snd_nxt = ack
        self.dupacks = 0
        if self.in_recovery:
            # Reno: the first new ACK ends recovery and deflates cwnd
            self.in_recovery = False
            self.cwnd = self.ssthresh
            tracer = self._tracer
            if tracer is not None:
                tracer.emit(self.sim.now, "tcp.recovery_exit", self.flow,
                            cwnd=self.cwnd, ack=ack)
        elif not (self.params.respect_efci and segment.efci_echo):
            self._grow_window(segment)
        self._cwnd_record(self.sim.now, self.cwnd)
        # _restart_rto inlined (flight after a new ACK is snd_nxt - ack)
        if self.snd_nxt > ack:
            self._arm_rto()
        else:
            self._rto_deadline = None
        self._try_send()

    def _grow_window(self, segment: Segment) -> None:
        """Per-new-ACK window growth (Stevens §21.6).

        Subclasses (Vegas) replace this policy; loss detection and
        recovery stay in the base class.
        """
        mss = self._mss
        if self.cwnd < self.ssthresh:
            self.cwnd += mss                    # slow start
        else:
            self.cwnd += mss * mss / self.cwnd  # congestion avoidance

    def _on_dupack(self) -> None:
        mss = self.params.mss
        self.dupacks += 1
        if self.in_recovery:
            self.cwnd += mss  # window inflation
        elif self.dupacks == self.params.dupack_threshold:
            self.fast_retransmits += 1
            self.ssthresh = max(self.flight_size / 2, 2 * mss)
            self._transmit(self.snd_una, is_retransmit=True)
            self.cwnd = self.ssthresh + self.params.dupack_threshold * mss
            self.in_recovery = True
            self.recover = self.snd_nxt
            tracer = self._tracer
            if tracer is not None:
                tracer.emit(self.sim.now, "tcp.fast_retransmit",
                            self.flow, cwnd=self.cwnd,
                            ssthresh=self.ssthresh, seq=self.snd_una)
        self.cwnd_probe.record(self.sim.now, self.cwnd)
        self._try_send()

    def _on_quench(self) -> None:
        """Source Quench: reduce as if a packet was dropped [BP87]."""
        self.quenches_received += 1
        guard = max(self.srtt or 0.0, self.params.quench_guard)
        if self.sim.now - self._last_quench_reaction < guard:
            return
        self._last_quench_reaction = self.sim.now
        mss = self.params.mss
        self.ssthresh = max(self.flight_size / 2, 2 * mss)
        self.cwnd = max(self.ssthresh, mss)
        self.cwnd_probe.record(self.sim.now, self.cwnd)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(self.sim.now, "tcp.quench", self.flow,
                        cwnd=self.cwnd, ssthresh=self.ssthresh)

    # ------------------------------------------------------------------
    # estimators
    # ------------------------------------------------------------------
    def _update_rtt(self, ack: int) -> None:
        if (self._timed_seq is None or not self._timing_valid
                or ack <= self._timed_seq):
            if self._timed_seq is not None and ack > self._timed_seq:
                self._timed_seq = None
            return
        sample = self.sim.now - self._timed_at
        self._timed_seq = None
        self.last_rtt = sample
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            err = sample - self.srtt
            self.srtt += err / 8
            self.rttvar += (abs(err) - self.rttvar) / 4
        self.rto = min(max(self.srtt + 4 * self.rttvar,
                           self.params.rto_min), self.params.rto_max)

    def _measure_rate(self, _timer: PeriodicTimer) -> None:
        """CR = acknowledged payload per interval, per the paper §4.3."""
        acked = self.snd_una - self._acked_at_interval_start
        self._acked_at_interval_start = self.snd_una
        self.current_rate = acked * 8 / self.params.rate_interval / 1e6
        self.rate_probe.record(self.sim.now, self.current_rate)
