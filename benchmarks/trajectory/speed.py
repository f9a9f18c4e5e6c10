"""Machine-speed probe: what a second of wall was worth when it passed.

The boxes this benchmark runs on change speed under it: neighbours on
the host slow allocation-heavy Python by 30-50 % for tens of seconds at
a time, core by core, so the same ``apply`` reads 2.3 s or 3.5 s
depending on when and where it ran. A median cannot fix that (a whole
24-second run can sit in one state), so every timed interval is scaled
by how fast the machine was *during* it.

A sidecar process (this file, run as a script) does a small fixed piece
of work ten times a second and logs the CPU seconds each took: CPU, not
wall, so that waiting for its turn does not read as a slow machine. The
program and the sidecar are pinned to the same core (:func:`share_core`)
so the probe feels exactly what the program feels; a sidecar on another
core follows a different neighbour and made matters worse. The speed of
an interval is the mean of the probes around it over
:data:`REFERENCE_S`; a wall time divided by its speed is in
*reference-speed seconds*. Raw medians are printed next to them.

The probe is the benchmark's own code, pure stdlib, so nothing under
``src/`` can make it faster, and the program never sees it.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import subprocess
import sys
import time
from typing import List, Sequence, Tuple

#: seconds between probe starts: ten a second costs the sidecar's core
#: about a tenth of its time and the measured process nothing
PERIOD_S = 0.1
WARM_UP_PROBES = 3
#: probes this far either side of an interval count towards its speed,
#: so an op shorter than the period still has a handful
WINDOW_S = 0.5
#: one probe's CPU seconds on the reference box, quiet, sharing its core
#: with a busy workload. Measured once; only ratios between commits
#: matter, and they do not depend on it.
REFERENCE_S = 0.006


def _work() -> int:
    """Allocation-heavy like the engine (dicts, strings, JSON both
    ways): host contention slows this and the program alike, which a
    pure arithmetic loop does not feel."""
    data = {
        f"k{i}": {"id": i, "tags": {"a": str(i), "b": [i, i + 1]}} for i in range(1500)
    }
    back = json.loads(json.dumps(data, sort_keys=True))
    return sum(value["id"] for value in back.values())


def _sidecar(log_path: str) -> None:
    with open(log_path, "w", encoding="utf-8") as log:
        while True:
            started = time.perf_counter()
            cpu_started = time.process_time()
            _work()
            took = time.process_time() - cpu_started
            log.write(f"{started!r} {took!r}\n")
            log.flush()
            time.sleep(max(0.0, PERIOD_S - (time.perf_counter() - started)))


def share_core() -> None:
    """Pin this process, and so every thread and child it starts from
    now on (the sidecar included), to one core. The program is bound by
    the interpreter lock and runs one core's worth either way."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class SpeedLog:
    """What the sidecar logged: answers :meth:`speed` for any interval."""

    def __init__(self, probes: Sequence[Tuple[float, float]]):
        """``probes`` are ``(started, CPU seconds taken)``."""
        self._times = [started for started, _took in probes]
        self._sums = list(
            itertools.accumulate((took for _started, took in probes), initial=0.0)
        )

    def speed(self, started: float, ended: float) -> float:
        """How slow the machine was over ``[started, ended]``: 1.0 is
        the reference box, 1.4 is a box taking 1.4x as long."""
        if not self._times:
            raise RuntimeError("the speed probe logged nothing at all")
        low = bisect.bisect_left(self._times, started - WINDOW_S)
        high = bisect.bisect_right(self._times, ended + WINDOW_S)
        if high <= low:
            # a sidecar starved for a second on an overloaded box: the
            # nearest probes on either side are the best there is
            low = max(0, low - 1)
            high = min(len(self._times), low + 2)
        return (self._sums[high] - self._sums[low]) / (high - low) / REFERENCE_S


class SpeedProbe:
    """The sidecar process, for the length of one run."""

    def __init__(self, log_path: str):
        self.log_path = log_path
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), log_path]
        )
        # its first probes pay for its own start-up: let them pass
        # before anything is timed against them
        deadline = time.perf_counter() + 5.0
        while time.perf_counter() < deadline and len(self._rows()) < WARM_UP_PROBES:
            time.sleep(PERIOD_S)

    def _rows(self) -> List[List[str]]:
        try:
            with open(self.log_path, encoding="utf-8") as log:
                return [line.split() for line in log]
        except OSError:
            return []

    def stop(self) -> SpeedLog:
        """Stop the sidecar, wait for it, and hand back what it logged
        (a line cut short by the terminate is dropped)."""
        self._proc.terminate()
        self._proc.wait()
        return SpeedLog(
            [(float(r[0]), float(r[1])) for r in self._rows() if len(r) == 2]
        )


if __name__ == "__main__":
    _sidecar(sys.argv[1])
