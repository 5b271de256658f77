"""SLO-aware admission control and elastic per-route shard shares.

The QoS layer between :meth:`repro.serve.LocalizationServer.submit`
(direct callers and the network gateway alike) and the dispatcher.
Overload must degrade *predictably* — bounded queues, explicit errors,
protected priority classes — never collapse into unbounded queueing:

* **Bounded per-route queues with priority classes** — every model id
  carries a declarative :class:`QosPolicy` (priority ∈
  ``interactive | standard | batch``, per-route queue bound, default
  deadline).  A full queue rejects new arrivals *synchronously* with
  :class:`RouteOverloaded` (wire code ``overloaded``, HTTP 503 +
  ``Retry-After``) instead of queueing forever.
* **Deadline-expired shedding** — requests carry absolute deadlines
  end-to-end; the dispatcher culls already-expired requests before they
  cost a batch slot and finishes them with :class:`DeadlineExpired`
  (wire code ``timeout``).  Compute is never burned on answers nobody
  is waiting for — including batches stranded by a worker crash whose
  every request expired while the shard restarted (their ring leases
  are freed, the batch is not re-dispatched).
* **SLO-aware load shedding** — when a route's fast+slow burn rate
  (:class:`repro.obs.slo.SloEngine` reports) breaches, a token-bucket
  shedder drops a computed fraction of *batch*-class traffic first,
  then standard, protecting interactive.  Shed-state transitions are
  journaled as ``kind=shed`` events with per-route counts.
* **Elastic shard shares** — a background :class:`Autoscaler` reads
  per-route queue depth, in-flight samples and p95 latency (from the
  monitor's :class:`~repro.obs.timeline.Timeline` when present, live
  stats otherwise) and adjusts each route's soft share of the shard
  pool with hysteresis; share moves are journaled as
  ``kind=rebalance`` events.  Shares feed the dispatcher's per-route
  concurrency caps — soft caps: an over-share route only yields when
  an under-share route has work, so the pool stays work-conserving
  and no request is ever dropped by a rebalance.

Policies, counters and shares are keyed by **model id**, not route key
— a hot swap or canary changes the route key (``model@vN``) but not the
model, so QoS state survives every rollout.

All mutating entry points are called under one of the server's locks
(see each method's docstring); the controller itself adds no locking.
"""

from __future__ import annotations

import json
import os
import time

__all__ = [
    "PRIORITIES",
    "QosPolicy",
    "RouteOverloaded",
    "DeadlineExpired",
    "TokenBucket",
    "AdmissionController",
    "Autoscaler",
    "load_qos_file",
    "save_qos_file",
]

#: Priority classes, most to least protected.  ``interactive`` is never
#: SLO-shed; ``batch`` sheds first, ``standard`` only once batch traffic
#: is fully shed.
PRIORITIES = ("interactive", "standard", "batch")

#: Outcome keys of the per-model admission counters.
_OUTCOMES = ("admitted", "rejected", "shed", "expired")


class RouteOverloaded(RuntimeError):
    """Synchronous admission rejection: the route's queue is full, the
    server-wide queue bound is hit, or the SLO shedder dropped the
    request.  ``retry_after_s`` is the client back-off hint the gateway
    forwards as HTTP ``Retry-After``."""

    def __init__(self, message: str, model: str | None = None,
                 retry_after_s: float = 1.0, shed: bool = False):
        super().__init__(message)
        self.model = model
        self.retry_after_s = float(retry_after_s)
        self.shed = bool(shed)


class DeadlineExpired(RuntimeError):
    """A request's absolute deadline lapsed before (or while) it was
    served; raised by :meth:`LocalizationServer.result` and mapped to
    the gateway's ``timeout`` wire code."""

    def __init__(self, message: str, model: str | None = None):
        super().__init__(message)
        self.model = model


class QosPolicy:
    """Declarative per-model admission policy.

    Parameters
    ----------
    priority:
        Default priority class of the model's requests (a submit may
        override per request).
    max_queue:
        Bound on the model's pending (not yet dispatched) samples; a
        full queue rejects with :class:`RouteOverloaded`.  ``None``
        leaves the route bounded only by the server-wide queue cap.
    deadline_ms:
        Default relative deadline stamped on the model's requests at
        submit; ``None`` submits without a deadline.
    """

    __slots__ = ("priority", "max_queue", "deadline_ms")

    def __init__(self, priority: str = "standard",
                 max_queue: int | None = None,
                 deadline_ms: float | None = None):
        if priority not in PRIORITIES:
            raise ValueError(
                f"priority must be one of {PRIORITIES}, got {priority!r}"
            )
        if max_queue is not None and int(max_queue) < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if deadline_ms is not None and float(deadline_ms) <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {deadline_ms}")
        self.priority = priority
        self.max_queue = None if max_queue is None else int(max_queue)
        self.deadline_ms = None if deadline_ms is None else float(deadline_ms)

    def to_dict(self) -> dict:
        return {"priority": self.priority, "max_queue": self.max_queue,
                "deadline_ms": self.deadline_ms}

    @classmethod
    def from_dict(cls, spec: dict) -> "QosPolicy":
        return cls(priority=spec.get("priority", "standard"),
                   max_queue=spec.get("max_queue"),
                   deadline_ms=spec.get("deadline_ms"))

    @classmethod
    def parse(cls, spec: str) -> "QosPolicy":
        """Parse the CLI shorthand ``priority[:max_queue[:deadline_ms]]``
        (empty fields keep the default, e.g. ``interactive::250``)."""
        fields = spec.split(":")
        if len(fields) > 3:
            raise ValueError(
                f"qos spec must be priority[:max_queue[:deadline_ms]], "
                f"got {spec!r}"
            )
        priority = fields[0] or "standard"
        max_queue = int(fields[1]) if len(fields) > 1 and fields[1] else None
        deadline_ms = (float(fields[2])
                       if len(fields) > 2 and fields[2] else None)
        return cls(priority=priority, max_queue=max_queue,
                   deadline_ms=deadline_ms)

    def __repr__(self) -> str:
        return (f"QosPolicy(priority={self.priority!r}, "
                f"max_queue={self.max_queue}, deadline_ms={self.deadline_ms})")


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s refill up to ``burst``.

    The SLO shedder uses one bucket per (model, sheddable class): its
    refill rate is the class's observed arrival rate scaled by
    ``1 - shed_fraction``, so admissions above the allowance fail
    :meth:`take` and are shed."""

    __slots__ = ("rate", "burst", "tokens", "_stamp")

    def __init__(self, rate: float, burst: float, now: float | None = None):
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._stamp = time.perf_counter() if now is None else now

    def set_rate(self, rate: float, burst: float | None = None) -> None:
        self.rate = float(rate)
        if burst is not None:
            self.burst = float(burst)
            self.tokens = min(self.tokens, self.burst)

    def take(self, n: float = 1.0, now: float | None = None) -> bool:
        now = time.perf_counter() if now is None else now
        elapsed = max(0.0, now - self._stamp)
        self._stamp = now
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False


class _ShedState:
    """Live shed state of one model while its SLO is breaching."""

    __slots__ = ("fraction", "since", "healthy_streak", "buckets")

    def __init__(self, fraction: float, now: float):
        self.fraction = fraction
        self.since = now
        self.healthy_streak = 0
        self.buckets: dict[str, TokenBucket] = {}


class AdmissionController:
    """Per-model admission state: policies, counters, SLO shed machinery.

    Parameters
    ----------
    resolve_model:
        ``route_key -> model id`` mapping used to attribute SLO reports
        (labeled by route key) to the model whose policy sheds.
    on_event:
        ``(kind, **fields)`` journal hook (the server's
        ``_journal_event``); receives ``shed`` engage/disengage events.
    max_shed_fraction:
        Ceiling on the computed shed fraction (always leaves some
        sheddable traffic flowing so recovery is observable).
    recover_evals:
        Consecutive healthy SLO evaluations required before shedding
        disengages (hysteresis — one good sample must not flap it off).
    """

    def __init__(self, resolve_model=None, on_event=None,
                 max_shed_fraction: float = 0.9, recover_evals: int = 3):
        self._resolve_model = resolve_model or (lambda key: key)
        self._on_event = on_event
        self.max_shed_fraction = float(max_shed_fraction)
        self.recover_evals = int(recover_evals)
        self._policies: dict[str, QosPolicy] = {}
        self._default = QosPolicy()
        self._counters: dict[str, dict[str, int]] = {}
        self._shedding: dict[str, _ShedState] = {}
        #: Arrival-rate EMA per model (requests/s), fed by record_admitted.
        self._arrival_ema: dict[str, float] = {}
        self._last_arrival: dict[str, float] = {}
        self.shed_updates = 0

    # -- policies -------------------------------------------------------
    def set_policy(self, model: str, policy: QosPolicy) -> None:
        self._policies[model] = policy

    def get_policy(self, model: str) -> QosPolicy:
        return self._policies.get(model, self._default)

    def has_policy(self, model: str) -> bool:
        return model in self._policies

    def policies(self) -> dict[str, QosPolicy]:
        return dict(self._policies)

    # -- counters (called under the server's queue condition) -----------
    def _cell(self, model: str) -> dict[str, int]:
        cell = self._counters.get(model)
        if cell is None:
            cell = self._counters[model] = dict.fromkeys(_OUTCOMES, 0)
        return cell

    def _note_arrival(self, model: str, now: float | None) -> None:
        """Fold one arrival into the model's rate EMA.  Every arrival
        counts — admitted, rejected *and* shed — so the shed buckets
        admit a true fraction of *offered* load; tracking only admitted
        arrivals would spiral (shedding lowers the rate estimate, which
        lowers the bucket rate, which sheds more) and starve the pool."""
        now = time.perf_counter() if now is None else now
        last = self._last_arrival.get(model)
        self._last_arrival[model] = now
        if last is not None and now > last:
            rate = 1.0 / (now - last)
            ema = self._arrival_ema.get(model)
            self._arrival_ema[model] = (
                rate if ema is None else ema + 0.2 * (rate - ema)
            )

    def record_admitted(self, model: str, now: float | None = None) -> None:
        self._cell(model)["admitted"] += 1
        self._note_arrival(model, now)

    def record_rejected(self, model: str, now: float | None = None) -> None:
        self._cell(model)["rejected"] += 1
        self._note_arrival(model, now)

    def record_expired(self, model: str) -> None:
        self._cell(model)["expired"] += 1

    def counters(self, model: str) -> dict[str, int]:
        return dict(self._cell(model))

    def all_counters(self) -> dict[str, dict[str, int]]:
        """Per-model admission counters.  The outer dict is copied
        atomically (it grows when a model first submits, possibly under
        a different lock than the reader's); the cells are fixed-key, so
        reading them concurrently is safe."""
        return dict(self._counters)

    # -- SLO-aware shedding ---------------------------------------------
    def _class_fraction(self, fraction: float, priority: str) -> float:
        """Split the model-level shed fraction across classes: batch
        sheds first (at up to twice the model fraction), standard only
        once batch traffic is fully shed, interactive never."""
        if priority == "batch":
            return min(1.0, 2.0 * fraction)
        if priority == "standard":
            return max(0.0, 2.0 * fraction - 1.0)
        return 0.0

    def should_shed(self, model: str, priority: str,
                    now: float | None = None) -> bool:
        """Whether to shed this arrival; called under the server's queue
        condition on every submit.  Counts the shed when it answers
        True (the caller raises :class:`RouteOverloaded`)."""
        state = self._shedding.get(model)
        if state is None or priority == "interactive":
            return False
        class_fraction = self._class_fraction(state.fraction, priority)
        if class_fraction <= 0.0:
            return False
        now = time.perf_counter() if now is None else now
        bucket = state.buckets.get(priority)
        if bucket is None:
            rate = self._allowed_rate(model, class_fraction)
            bucket = state.buckets[priority] = TokenBucket(
                rate, burst=max(1.0, rate * 0.25), now=now)
        if bucket.take(1.0, now=now):
            return False
        self._cell(model)["shed"] += 1
        self._note_arrival(model, now)
        return True

    def _allowed_rate(self, model: str, class_fraction: float) -> float:
        arrival = self._arrival_ema.get(model, 10.0)
        return max(0.1, arrival * (1.0 - class_fraction))

    def update_shedding(self, reports: list[dict],
                        now: float | None = None) -> None:
        """Feed a round of SLO reports; engages/disengages per-model
        shedding with hysteresis.  A report labeled ``route=<key>``
        targets that key's model; an unlabeled breaching report is a
        server-wide signal and sheds every known model.  Called from
        the monitor's sample listener (timeline thread) or directly by
        deterministic tests/drills."""
        now = time.perf_counter() if now is None else now
        self.shed_updates += 1
        breached: dict[str, float] = {}
        any_breach_models: set = set()
        healthy_global = True
        for report in reports:
            route = (report.get("labels") or {}).get("route")
            breaching = bool(report.get("breaching"))
            burn = max(report.get("fast", {}).get("burn_rate", 0.0),
                       report.get("slow", {}).get("burn_rate", 0.0))
            max_burn = report.get("max_burn_rate") or 1.0
            excess = burn / max_burn if max_burn > 0 else burn
            if route is not None:
                model = self._resolve_model(route)
                if breaching:
                    breached[model] = max(breached.get(model, 0.0), excess)
                    any_breach_models.add(model)
            elif breaching:
                healthy_global = False
                for model in set(self._counters) | set(self._policies):
                    breached[model] = max(breached.get(model, 0.0), excess)
                    any_breach_models.add(model)
        for model, excess in breached.items():
            # Shed fraction grows with how far past budget the burn is:
            # exactly at the limit sheds 25% of batch traffic, 2x over
            # sheds half, and the ceiling always leaves traffic flowing.
            fraction = min(self.max_shed_fraction,
                           0.25 * max(1.0, excess) / 2.0 + 0.25)
            state = self._shedding.get(model)
            if state is None:
                self._shedding[model] = _ShedState(fraction, now)
                self._journal_shed(model, "engaged", fraction)
            else:
                state.fraction = max(state.fraction, fraction)
                state.healthy_streak = 0
                for priority, bucket in state.buckets.items():
                    bucket.set_rate(self._allowed_rate(
                        model,
                        self._class_fraction(state.fraction, priority)))
        if healthy_global:
            for model, state in list(self._shedding.items()):
                if model in any_breach_models:
                    continue
                state.healthy_streak += 1
                if state.healthy_streak >= self.recover_evals:
                    del self._shedding[model]
                    self._journal_shed(model, "disengaged", 0.0)

    def _journal_shed(self, model: str, transition: str,
                      fraction: float) -> None:
        if self._on_event is not None:
            counts = self._cell(model)
            self._on_event("shed", model=model, transition=transition,
                           fraction=round(fraction, 4),
                           shed=counts["shed"], admitted=counts["admitted"],
                           rejected=counts["rejected"])

    def shedding(self) -> dict:
        """Live shed state per model (for ``stats()`` and tests)."""
        return {
            model: {"fraction": round(state.fraction, 4),
                    "healthy_streak": state.healthy_streak}
            for model, state in dict(self._shedding).items()
        }

    def summary(self) -> dict:
        return {
            "policies": {model: policy.to_dict()
                         for model, policy in dict(self._policies).items()},
            "default_policy": self._default.to_dict(),
            "counters": {model: dict(cell)
                         for model, cell in self.all_counters().items()},
            "shedding": self.shedding(),
            "shed_updates": self.shed_updates,
        }


class Autoscaler:
    """Elastic per-route shard shares with hysteresis.

    A background loop (or a test calling :meth:`rebalance` directly)
    reads each model's pressure — samples queued since the last round,
    queued samples, in-flight samples, and p95 latency — and moves the
    models' soft shares of the shard pool toward the load distribution.
    Shares feed the dispatcher's per-route concurrency caps (``share ×
    live shards × max_batch`` samples in flight, floored at one full
    batch so every route always makes progress).  Moves are exponential
    (``step`` of the gap per round) and only *commit* when the largest
    move exceeds ``deadband`` — hysteresis against share flapping; every
    commit is journaled as a ``rebalance`` event.

    Parameters
    ----------
    server:
        The owning :class:`repro.serve.LocalizationServer`.
    interval_s:
        Background loop cadence.
    min_share:
        Floor on any deployed model's share (a cold route keeps enough
        pool to respond instantly when traffic returns).
    step:
        Fraction of the (desired − current) gap applied per round.
    deadband:
        Largest per-model share move below which nothing commits.
    """

    def __init__(self, server, interval_s: float = 0.25,
                 min_share: float = 0.1, step: float = 0.5,
                 deadband: float = 0.02):
        self.server = server
        self.interval_s = float(interval_s)
        self.min_share = float(min_share)
        self.step = float(step)
        self.deadband = float(deadband)
        self.rebalances = 0
        self.evaluations = 0
        self._enqueued: dict[str, int] = {}  # at the previous round
        self._thread = None
        self._stop = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        import threading

        if self._thread is not None:
            return
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop,
                                        name="serve-autoscaler", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=2.0)
        self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.rebalance()
            except Exception:
                pass  # a scaling hiccup must never take serving down

    # -- share computation ----------------------------------------------
    def _p95_ms(self, model: str, key: str) -> float | None:
        server = self.server
        monitor = getattr(server, "monitor", None)
        if monitor is not None:
            p95 = monitor.timeline.latest("serve_route_latency_ms",
                                          {"route": key}, "p95")
            if p95 is not None:
                return float(p95)
        route = server._route_stats.get(key)
        if route is not None:
            return route.latency_ms.summary()["p95_ms"]
        return None

    def _loads(self) -> dict[str, float]:
        """Per-model pressure: samples queued since the last round plus
        the queued + in-flight backlog, weighted up by p95 latency (a
        slow hot route needs share sooner than a fast one at the same
        depth).  The demand term matters because a work-conserving
        batcher leaves the backlog near zero between requests, so a
        point sample of it alone is mostly noise."""
        server = self.server
        with server._lock:
            routes = dict(server._routes)
            outstanding = dict(server._route_outstanding)
            with server._cond:
                queued = dict(server._pending_by_model)
                enqueued = dict(server._enqueued_samples)
        previous, self._enqueued = self._enqueued, enqueued
        loads = {}
        for model, key in routes.items():
            demand = enqueued.get(model, 0) - previous.get(model, 0)
            base = float(demand + queued.get(model, 0)
                         + outstanding.get(model, 0))
            p95 = self._p95_ms(model, key)
            weight = 1.0 + (p95 / 100.0 if p95 else 0.0)
            loads[model] = base * weight
        return loads

    def rebalance(self, now: float | None = None) -> dict | None:
        """One evaluation round; returns the committed shares (or None
        when the move stayed inside the deadband).  Safe to call from
        tests without starting the background loop."""
        self.evaluations += 1
        loads = self._loads()
        if len(loads) < 2:
            return None  # a single route always owns the whole pool
        total = sum(loads.values())
        n = len(loads)
        current = self.server.route_shares()
        for model in loads:
            current.setdefault(model, 1.0 / n)
        # Retired models drop out of the share table.
        current = {model: share for model, share in current.items()
                   if model in loads}
        norm = sum(current.values()) or 1.0
        current = {model: share / norm for model, share in current.items()}
        desired = (
            {model: 1.0 / n for model in loads} if total <= 0.0
            else {model: load / total for model, load in loads.items()}
        )
        proposed = {}
        for model in loads:
            moved = current[model] + self.step * (desired[model]
                                                 - current[model])
            proposed[model] = max(self.min_share, moved)
        norm = sum(proposed.values())
        proposed = {model: share / norm for model, share in proposed.items()}
        largest_move = max(abs(proposed[model] - current[model])
                           for model in loads)
        if largest_move < self.deadband:
            return None
        self.rebalances += 1
        self.server.set_route_shares(proposed)
        self.server._journal_event(
            "rebalance",
            shares={model: round(share, 4)
                    for model, share in sorted(proposed.items())},
            loads={model: round(load, 2)
                   for model, load in sorted(loads.items())},
            move=round(largest_move, 4),
        )
        return proposed

    def summary(self) -> dict:
        return {
            "interval_s": self.interval_s,
            "min_share": self.min_share,
            "step": self.step,
            "deadband": self.deadband,
            "evaluations": self.evaluations,
            "rebalances": self.rebalances,
            "running": self._thread is not None,
        }


# -- policy persistence (the `fleet qos` CLI surface) --------------------

def load_qos_file(path: str) -> dict[str, QosPolicy]:
    """Load a ``{model: policy-dict}`` JSON file; missing file → {}."""
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        spec = json.load(handle)
    return {model: QosPolicy.from_dict(fields)
            for model, fields in spec.items()}


def save_qos_file(path: str, policies: dict[str, QosPolicy]) -> str:
    """Persist ``{model: QosPolicy}`` as pretty JSON; returns the path."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({model: policy.to_dict()
                   for model, policy in sorted(policies.items())},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
