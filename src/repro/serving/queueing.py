"""Per-storage-node request queues: latency that degrades under load.

Without a queue, a storage node charges each request an independent sample
from its service-time model — two requests arriving in the same microsecond
cost the same as two requests an hour apart.  With a queue the node becomes
a FIFO single server: a request arriving while an earlier one is still in
service waits until the server frees up, so response time is

    ``wait (behind in-flight requests) + service (latency-model sample)``.

As the merged arrival rate from all clients approaches the node's capacity,
the backlog — and therefore the wait — grows without bound, which is exactly
the saturation behaviour the PIQL paper's SLO methodology guards against.

The queue's backlog (service seconds booked at or after a given time) is
also a routing signal: the cluster serves every read, and every range
inside one replica group, at the replica whose queue holds the least
backlog, ties going to the key's read order.  A hot group's reads so
spread over its replicas instead of queueing on one, and a cluster with no
queues installed (every backlog zero) is served in read order.

The queue also measures two load signals, sampled each control tick as
counter deltas and smoothed with an exponential moving average (time
constant ``smoothing_seconds``):

* **arrival rate** (requests/second), fed back into
  ``StorageNode.set_offered_load`` so the analytic M/M/1 utilisation factor
  in the latency model tracks actual traffic instead of a static knob;
* **busy fraction** (service-seconds charged per second), the saturation
  indicator the admission controller and autoscaler act on — unlike the
  arrival rate, which plateaus at whatever a saturated server still
  manages to serve, it pins at 1.0 in overload.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from ..kvstore.cluster import KeyValueCluster
from ..kvstore.node import StorageNode


#: Width of one capacity-calendar bucket: the grain of charged waits.
BUCKET_SECONDS = 0.05


def _bucket(sim_time: float) -> int:
    """The calendar bucket holding ``sim_time``.

    ``sim_time // BUCKET_SECONDS`` floors a round time such as 1.0 into the
    bucket that *ends* there (1.0 / 0.05 is 19.999...); the nudge puts it in
    the bucket it starts.
    """
    return math.floor(sim_time / BUCKET_SECONDS + 1e-9)


class NodeRequestQueue:
    """Single-server queue attached to one :class:`StorageNode`.

    The node calls :meth:`on_request` from its ``charge_*`` methods (see the
    ``request_queue`` hook) with the request's arrival time and sampled
    service time; the returned wait is added to the charged latency.

    The server is modelled as a **capacity calendar**: simulated time is cut
    into buckets of :data:`BUCKET_SECONDS`, each able to absorb exactly
    that much service.  A request packs its service time into
    the first free capacity at or after its arrival, and its wait is how far
    that start lies past the arrival.  A plain scalar ``busy-until`` FIFO
    would be simpler, but the serving tier charges requests on many
    *private* client clocks that the event kernel interleaves only at
    interaction granularity — with out-of-order arrivals a scalar frontier
    never drains and a standing phantom backlog builds up.  The calendar
    stays work-conserving under that interleaving: waits appear exactly
    when nearby capacity is genuinely exhausted.

    Each bucket tracks only its total used capacity, not request positions,
    so waits are quantised to bucket granularity and sub-bucket queueing is
    left to the latency model's analytic utilisation factor.  The calendar's
    job is the macroscopic part: a hard throughput ceiling and an overload
    backlog that grows — and drains — like the real thing.
    """

    def __init__(self, smoothing_seconds: float = 2.0, now: float = 0.0):
        if smoothing_seconds <= 0:
            raise ValueError("smoothing_seconds must be positive")
        self.smoothing_seconds = smoothing_seconds
        #: Requests admitted and service seconds charged, since installation.
        self.arrivals = 0
        self.service_seconds = 0.0
        self.smoothed_rate = 0.0
        self.smoothed_busy_fraction = 0.0
        self._buckets: Dict[int, float] = {}
        #: No bucket above this one holds any charge: the end of the walk
        #: :meth:`backlog_seconds` makes from the current bucket.
        self._last_bucket = -1
        # Baseline for rate sampling: the installation time.  A queue the
        # autoscaler attaches mid-run must not average its first counters
        # over the whole simulation so far.
        self._sample_time = now
        self._sample_arrivals = 0
        self._sample_service = 0.0

    def on_request(self, sim_time: float, service_seconds: float) -> float:
        """Admit one request; return the time it spends waiting in queue."""
        width = BUCKET_SECONDS
        bucket = _bucket(sim_time)
        remaining = service_seconds
        start_time: float = sim_time
        started = False
        while remaining > 1e-12:
            used = self._buckets.get(bucket, 0.0)
            free = width - used
            if free > 1e-12:
                if not started:
                    start_time = max(sim_time, bucket * width)
                    started = True
                take = min(free, remaining)
                self._buckets[bucket] = used + take
                remaining -= take
            bucket += 1
        if bucket - 1 > self._last_bucket:
            self._last_bucket = bucket - 1
        self.arrivals += 1
        self.service_seconds += service_seconds
        return max(0.0, start_time - sim_time)

    # ------------------------------------------------------------------
    # Signals for the control loop
    # ------------------------------------------------------------------
    def backlog_seconds(self, now: float) -> float:
        """Service seconds already committed at or after ``now``.

        On the request path: the cluster serves each read at the replica
        with the least backlog (``kvstore.cluster._Backlogs.least``).  So
        it sums the buckets from ``now``'s up to the last charged one, in
        bucket order, and a drained queue answers without a walk.
        """
        horizon = _bucket(now)
        last = self._last_bucket
        if last < horizon:
            return 0.0
        buckets = self._buckets
        used = buckets.get(horizon)
        total = 0.0
        if used is not None:
            left = horizon * BUCKET_SECONDS + used - now
            if left > 0.0:
                total = left
        if last > horizon:
            for bucket in range(horizon + 1, last + 1):
                used = buckets.get(bucket)
                if used is not None:
                    total += used
        return total

    def sample(self, now: float) -> Tuple[float, float]:
        """Advance the load signals to ``now``; return (rate, busy fraction).

        Counter deltas since the previous sample are turned into rates and
        folded into the exponential moving averages.  Sampling twice at the
        same instant is idempotent (returns the current smoothed values).
        """
        elapsed = now - self._sample_time
        if elapsed > 0:
            rate = (self.arrivals - self._sample_arrivals) / elapsed
            busy = (self.service_seconds - self._sample_service) / elapsed
            alpha = 1.0 - math.exp(-elapsed / self.smoothing_seconds)
            self.smoothed_rate += alpha * (rate - self.smoothed_rate)
            self.smoothed_busy_fraction += alpha * (
                min(busy, 1.0) - self.smoothed_busy_fraction
            )
            self._sample_time = now
            self._sample_arrivals = self.arrivals
            self._sample_service = self.service_seconds
            self._prune(now)
        return self.smoothed_rate, self.smoothed_busy_fraction

    def _prune(self, now: float) -> None:
        """Forget calendar buckets far enough in the past to be immutable."""
        horizon = _bucket(now - 10.0 * self.smoothing_seconds)
        if horizon <= 0:
            return
        stale = [bucket for bucket in self._buckets if bucket < horizon]
        for bucket in stale:
            del self._buckets[bucket]


# ----------------------------------------------------------------------
# Cluster-level helpers
# ----------------------------------------------------------------------
def install_queues(cluster: KeyValueCluster) -> Dict[int, NodeRequestQueue]:
    """Attach a fresh request queue to every node; return them by node id."""
    queues: Dict[int, NodeRequestQueue] = {}
    for node in cluster.nodes:
        node.request_queue = NodeRequestQueue()
        queues[node.node_id] = node.request_queue
    return queues


def install_queue(
    node: StorageNode, smoothing_seconds: float = 2.0, now: float = 0.0
) -> NodeRequestQueue:
    """Attach a request queue to one node (used when the autoscaler grows)."""
    node.request_queue = NodeRequestQueue(smoothing_seconds, now=now)
    return node.request_queue


def remove_queues(cluster: KeyValueCluster) -> None:
    """Detach all request queues (back to the contention-free model)."""
    for node in cluster.nodes:
        node.request_queue = None


def refresh_utilization(cluster: KeyValueCluster, now: float) -> float:
    """Refresh per-node utilisation from queue measurements; return the mean.

    Two deliberately different signals:

    * the node's latency model gets the measured **arrival rate** (its
      analytic M/M/1 factor models sub-saturation degradation; feeding the
      busy time back in would double-count the queueing the FIFO wait
      already charges, and the feedback loop would saturate on its own);
    * the returned control signal is the mean **busy fraction**, which goes
      to 1.0 in overload, giving the autoscaler and admission controller an
      honest saturation indicator.

    Nodes without a queue keep their statically configured utilisation and
    contribute it to the mean.  Crashed nodes serve nothing — their signal
    is excluded so the control loops react to the *surviving* capacity
    (whose measured rates rise as traffic concentrates on fewer replicas).
    """
    signals = []
    for node in cluster.nodes:
        queue = node.request_queue
        if not node.up:
            node.set_offered_load(0.0)
            continue
        if isinstance(queue, NodeRequestQueue):
            rate, busy = queue.sample(now)
            node.set_offered_load(rate)
            signals.append(busy)
        else:
            signals.append(node.utilization)
    return sum(signals) / len(signals) if signals else 0.0
