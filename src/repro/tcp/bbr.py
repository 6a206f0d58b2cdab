"""TCP BBR v1 congestion control (Cardwell et al., CACM 2017).

BBR builds an explicit model of the path -- bottleneck bandwidth
(windowed max of delivery-rate samples over 10 round trips) and
round-trip propagation delay (windowed min over 10 seconds) -- and paces
at ``pacing_gain * BtlBw`` with the congestion window capped at
``2 * BDP``.  That cap is the mechanism behind the paper's Table 4
observation that a competing BBR flow holds the 7x-BDP bottleneck queue
to roughly half the delay a Cubic competitor causes, and BBR's
loss-blindness is why game systems fare differently against it
(Section 4): unlike Cubic it does not yield when the game stream's
packets force drops.

State machine: STARTUP (gain 2/ln 2) until bandwidth plateaus three
rounds in a row, DRAIN back to one BDP, then PROBE_BW's eight-phase gain
cycle [1.25, 0.75, 1, 1, 1, 1, 1, 1]; PROBE_RTT (four-packet window for
at least 200 ms) whenever the min-RTT estimate goes 10 s without a new
minimum.
"""

from __future__ import annotations

from repro.tcp.base import CongestionControl, RateSample, TcpSender
from repro.tcp.windowed_filter import WindowedMaxFilter, WindowedMinFilter

__all__ = ["BbrCC"]

_STARTUP_GAIN = 2.0 / 0.6931471805599453  # 2/ln(2) = 2.885
_DRAIN_GAIN = 1.0 / _STARTUP_GAIN
_CWND_GAIN = 2.0
_PROBE_BW_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
_BW_WINDOW_ROUNDS = 10
_MIN_RTT_WINDOW = 10.0  # seconds
_PROBE_RTT_DURATION = 0.2  # seconds
_MIN_CWND = 4.0
_FULL_BW_THRESH = 1.25
_FULL_BW_COUNT = 3

STARTUP = "startup"
DRAIN = "drain"
PROBE_BW = "probe_bw"
PROBE_RTT = "probe_rtt"


class BbrCC(CongestionControl):
    """BBR v1."""

    name = "bbr"

    def __init__(self, cycle_rand: int = 0, cwnd_gain: float = _CWND_GAIN):
        # The 2xBDP inflight cap is cwnd_gain * BDP; the ablation
        # benchmarks raise it to show the cap is what halves Table 4's
        # 7x-BDP RTTs relative to Cubic.
        self.cwnd_gain_setting = cwnd_gain
        # Model.
        self.bw_filter = WindowedMaxFilter(_BW_WINDOW_ROUNDS)
        self.min_rtt: float | None = None
        self.min_rtt_stamp = 0.0
        # Round counting.
        self.round_count = 0
        self._next_round_delivered = 0
        self._round_start = False
        # State machine.
        self.state = STARTUP
        self.pacing_gain = _STARTUP_GAIN
        self.cwnd_gain = _STARTUP_GAIN
        self.full_bw = 0.0
        self.full_bw_count = 0
        self.full_bw_reached = False
        self._cycle_index = cycle_rand % len(_PROBE_BW_GAINS)
        self._cycle_stamp = 0.0
        self._probe_rtt_done_stamp: float | None = None
        self._probe_rtt_round_done = False
        self._saved_cwnd = 0.0
        self._packet_conservation = False
        self._recovery_cwnd = _MIN_CWND

    # ------------------------------------------------------------------
    def on_init(self, sender: TcpSender) -> None:
        sender.cwnd = 10.0
        sender.pacing_rate = None  # burst the initial window, pace after

    # ------------------------------------------------------------------
    @property
    def bw(self) -> float:
        """Bottleneck bandwidth estimate, bytes/second (0 before samples)."""
        return self.bw_filter.value or 0.0

    def bdp_bytes(self) -> float:
        if self.min_rtt is None or self.bw <= 0:
            return 0.0
        return self.bw * self.min_rtt

    def _transition(self, sender: TcpSender, new_state: str) -> None:
        """Switch state, emitting a ``bbr.state`` tracepoint."""
        old_state = self.state
        self.state = new_state
        tracer = sender.tracer
        if tracer.enabled and new_state != old_state:
            tracer.emit(
                "bbr.state", sender.sim.now,
                flow=sender.flow,
                **{"from": old_state, "to": new_state},
                bw=self.bw, min_rtt=self.min_rtt,
                round=self.round_count,
            )

    # ------------------------------------------------------------------
    def on_ack(self, sender: TcpSender, acked: int, sample: RateSample) -> None:
        now = sender.sim.now

        # Round accounting.
        self._round_start = False
        if sample.prior_delivered >= self._next_round_delivered:
            self._next_round_delivered = sample.delivered
            self.round_count += 1
            self._round_start = True

        # Update the model.  The bandwidth filter is frozen during
        # PROBE_RTT: at short RTTs the 200 ms four-packet probe spans
        # more rounds than the filter window, and folding its starvation
        # samples in would collapse the model the probe is supposed to
        # leave untouched (its purpose is the min-RTT sample).
        if self.state != PROBE_RTT:
            if sample.delivery_rate > 0 and (
                not sample.is_app_limited or sample.delivery_rate > self.bw
            ):
                self.bw_filter.update(self.round_count, sample.delivery_rate)
        # Linux computes expiry *before* refreshing the estimate, so a
        # stale filter both adopts the new sample and triggers PROBE_RTT.
        filter_expired = (
            self.min_rtt is not None and now - self.min_rtt_stamp > _MIN_RTT_WINDOW
        )
        if sample.rtt is not None:
            if self.min_rtt is None or sample.rtt < self.min_rtt or filter_expired:
                self.min_rtt = sample.rtt
                self.min_rtt_stamp = now

        if not self.full_bw_reached:
            self._check_full_bw_reached()
        if self.state != PROBE_BW:
            self._update_state(sender, now)
        # PROBE_BW, the steady state: advance the gain cycle.
        min_rtt = self.min_rtt
        if self.state == PROBE_BW and min_rtt is not None:
            gain = _PROBE_BW_GAINS[self._cycle_index]
            advance = now - self._cycle_stamp > min_rtt
            if gain < 1.0 and not advance:
                # Leave the 0.75 phase early once the excess queue is drained.
                advance = sender.pipe * sender.segment_size <= self.bdp_bytes()
            if advance:
                self._cycle_index = (self._cycle_index + 1) % len(_PROBE_BW_GAINS)
                self._cycle_stamp = now
                self.pacing_gain = _PROBE_BW_GAINS[self._cycle_index]
        if filter_expired or self.state == PROBE_RTT:
            self._check_probe_rtt(sender, now, filter_expired)
        self._set_pacing_and_cwnd(sender, acked)

    # ------------------------------------------------------------------
    def _check_full_bw_reached(self) -> None:
        """Plateau detection; the caller skips it once reached."""
        if not self._round_start:
            return
        if self.bw >= self.full_bw * _FULL_BW_THRESH:
            self.full_bw = self.bw
            self.full_bw_count = 0
            return
        self.full_bw_count += 1
        if self.full_bw_count >= _FULL_BW_COUNT:
            self.full_bw_reached = True

    def _update_state(self, sender: TcpSender, now: float) -> None:
        """STARTUP -> DRAIN -> PROBE_BW (``on_ack`` runs the gain cycle)."""
        if self.state == STARTUP and self.full_bw_reached:
            self._transition(sender, DRAIN)
            self.pacing_gain = _DRAIN_GAIN
            self.cwnd_gain = _STARTUP_GAIN
        if self.state == DRAIN:
            if sender.pipe * sender.segment_size <= self.bdp_bytes():
                self._enter_probe_bw(sender, now)

    def _enter_probe_bw(self, sender: TcpSender, now: float) -> None:
        self._transition(sender, PROBE_BW)
        self.cwnd_gain = self.cwnd_gain_setting
        self._cycle_stamp = now
        self.pacing_gain = _PROBE_BW_GAINS[self._cycle_index]

    def _check_probe_rtt(self, sender: TcpSender, now: float, filter_expired: bool) -> None:
        """Enter or run PROBE_RTT; the caller skips it when neither applies."""
        if self.state != PROBE_RTT:
            if filter_expired:
                self._transition(sender, PROBE_RTT)
                self._saved_cwnd = sender.cwnd
                self.pacing_gain = 1.0
                self._probe_rtt_done_stamp = None
            return
        # In PROBE_RTT: wait until pipe has drained to the minimal window.
        if self._probe_rtt_done_stamp is None:
            if sender.pipe <= _MIN_CWND:
                self._probe_rtt_done_stamp = now + _PROBE_RTT_DURATION
                self._probe_rtt_round_done = False
                self._next_round_delivered = sender.delivered
        else:
            if self._round_start:
                self._probe_rtt_round_done = True
            if self._probe_rtt_round_done and now >= self._probe_rtt_done_stamp:
                self.min_rtt_stamp = now
                sender.cwnd = max(sender.cwnd, self._saved_cwnd)
                if self.full_bw_reached:
                    # Resume at the probing gain so bandwidth ceded
                    # during the drain is reclaimed immediately.
                    self._cycle_index = 0
                    self._enter_probe_bw(sender, now)
                else:
                    self._transition(sender, STARTUP)
                    self.pacing_gain = _STARTUP_GAIN

    # ------------------------------------------------------------------
    def _set_pacing_and_cwnd(self, sender: TcpSender, acked: int = 0) -> None:
        bw = self.bw_filter.value
        min_rtt = self.min_rtt
        if bw is None or bw <= 0 or min_rtt is None:
            return  # keep initial window until the model has data
        sender.pacing_rate = self.pacing_gain * bw
        # cwnd_gain * bdp_bytes(), in bdp_bytes()'s evaluation order.
        target = max(self.cwnd_gain * (bw * min_rtt) / sender.segment_size, _MIN_CWND)
        if self.state == PROBE_RTT:
            sender.cwnd = _MIN_CWND
        elif self._packet_conservation:
            # Loss recovery (Linux bbr_set_cwnd): start from the data in
            # flight and grow by the amount delivered -- BBR v1's one
            # concession to loss.  The model window returns on exit.
            self._recovery_cwnd = max(self._recovery_cwnd + acked, _MIN_CWND)
            sender.cwnd = min(self._recovery_cwnd, target)
        else:
            # Grow by at most the delivered amount per ACK (Linux never
            # jumps straight to the target window; doing so bursts the
            # post-recovery queue and re-enters loss immediately).
            sender.cwnd = min(sender.cwnd + acked, target)
            if sender.cwnd < _MIN_CWND:
                sender.cwnd = _MIN_CWND

    # ------------------------------------------------------------------
    def on_loss(self, sender: TcpSender) -> None:
        """BBR v1 does not reduce its rate model on loss, but it does
        enter packet conservation for the recovery round."""
        if not self._packet_conservation:
            self._recovery_cwnd = max(float(sender.pipe + 1), _MIN_CWND)
        self._packet_conservation = True

    def on_recovery_exit(self, sender: TcpSender) -> None:
        self._packet_conservation = False

    def on_rto(self, sender: TcpSender) -> None:
        # Conservative collapse; the model restores cwnd on the next ACKs.
        self._packet_conservation = False
        sender.cwnd = _MIN_CWND
