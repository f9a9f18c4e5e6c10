"""The graceful-degradation ladder: normal -> brownout -> read-only.

Overload policy in one place, driven by queue pressure (queued depth as
a fraction of capacity):

* **normal** -- everything admitted that clears rate/quota checks.
* **brownout** -- requests below the priority floor are shed at
  admission, and already-queued low-priority work may be evicted. The
  adversarial (priority 0) tier pays first.
* **read-only** -- the apply pool is saturated past recovery at current
  demand; only non-mutating ops (``plan``/``drift``/``stats``) are
  admitted so observability stays up while the backlog drains. This is
  the "drift watching stays available during an apply storm" guarantee.

Transitions use hysteresis: the ladder climbs at ``*_up`` thresholds
and only descends after pressure falls below the matching ``*_down``
threshold, so a queue oscillating around a boundary does not flap the
mode (and with it, the shed behavior) every scheduler tick.
"""

from __future__ import annotations

MODE_NORMAL = "normal"
MODE_BROWNOUT = "brownout"
MODE_READ_ONLY = "read-only"

_LADDER = (MODE_NORMAL, MODE_BROWNOUT, MODE_READ_ONLY)


class DegradationLadder:
    """Hysteretic overload-mode state machine. The thresholds are
    constants; a test may pin one on an instance."""

    brownout_up = 0.70
    brownout_down = 0.40
    read_only_up = 0.90
    read_only_down = 0.60
    brownout_priority_floor = 1

    def __init__(self) -> None:
        self.mode = MODE_NORMAL
        self.transitions = 0

    def update(self, pressure: float) -> str:
        """Advance the ladder for the current queue ``pressure`` (0..1+)."""
        previous = self.mode
        if self.mode == MODE_NORMAL:
            if pressure >= self.read_only_up:
                self.mode = MODE_READ_ONLY
            elif pressure >= self.brownout_up:
                self.mode = MODE_BROWNOUT
        elif self.mode == MODE_BROWNOUT:
            if pressure >= self.read_only_up:
                self.mode = MODE_READ_ONLY
            elif pressure < self.brownout_down:
                self.mode = MODE_NORMAL
        else:  # read-only
            if pressure < self.read_only_down:
                # Step down one rung, never straight to normal -- the
                # backlog that tripped read-only is still draining.
                self.mode = (
                    MODE_NORMAL
                    if pressure < self.brownout_down
                    else MODE_BROWNOUT
                )
        if self.mode != previous:
            self.transitions += 1
        return self.mode

    def sheds_priority(self, priority: int) -> bool:
        """Does the current mode shed a request at this priority?"""
        return (
            self.mode != MODE_NORMAL
            and priority < self.brownout_priority_floor
        )

    @property
    def read_only(self) -> bool:
        return self.mode == MODE_READ_ONLY

    def rung(self) -> int:
        return _LADDER.index(self.mode)
