"""Simulated time.

The PIQL paper measures wall-clock latency against a real key/value store
cluster running on EC2.  This reproduction replaces the cluster with a
simulator, so time itself has to be simulated: every key/value operation is
charged a latency sampled from a service-time model, and the *simulated*
clock of the issuing client advances by that amount.

The clock is deliberately simple: it is a monotonically increasing floating
point number of seconds.  Each emulated client thread owns its own clock so
that many threads can be simulated without any real concurrency; throughput
is then "interactions completed per simulated second".
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SimClock:
    """A simulated wall clock measured in seconds.

    Parameters
    ----------
    now:
        The current simulated time in seconds.  Defaults to zero.
    """

    now: float = 0.0

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time.

        Negative advances are rejected because simulated time, like real
        time, only moves forward.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time: {seconds}")
        self.now += seconds
        return self.now

    def reset(self) -> None:
        """Reset the clock to zero."""
        self.now = 0.0
