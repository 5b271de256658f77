"""Work-conserving micro-batching rule for the serving dispatcher.

The dispatcher coalesces pending requests into one worker batch.
:class:`AdaptiveBatchPolicy` decides *how long to keep coalescing* from
the state of the shard pool, not from a model of the traffic:

* a live shard with nothing outstanding means the engine is free, so
  whatever is queued dispatches *now* — a lone request never waits for a
  batch that will not fill;
* while every shard is busy, waiting costs no engine time, so requests
  keep coalescing until a shard frees up (the collector wakes the
  dispatcher), the batch reaches ``max_batch``, ``max_delay_ms`` passes
  since the oldest pending request arrived, or half the nearest QoS
  deadline slack is spent.

Batch size therefore comes from queueing: it grows with load and stays
at one under sparse traffic (Clipper's adaptive batching, Crankshaw et
al., NSDI 2017).  The rule is pure (no threads, no clocks of its own):
the dispatcher feeds it the pool state and pending counts, and it
answers with a wait budget in seconds.

:func:`assemble_images` is the other half of batch formation: it gathers
the coalesced requests' image blocks into the dispatch payload — either
directly into a shared-memory ring view (the zero-copy transport, no
intermediate stacked array ever exists) or into a fresh contiguous array
for the pickle transport.
"""

from __future__ import annotations

import numpy as np


def assemble_images(blocks: list[np.ndarray],
                    out: np.ndarray | None = None) -> np.ndarray:
    """Gather per-request image blocks into one contiguous batch.

    With ``out`` (a :class:`repro.serve.shm.ShmRing` view over the
    batch's ring lease) each block is written straight into shared
    memory — the assembly *is* the transport, so the batch crosses the
    process boundary without a pickle pass or a temporary stack.
    Without ``out`` the blocks are stacked into a fresh array for the
    pickle transport; a single pre-chunked request passes through
    zero-copy, exactly as before.
    """
    if out is None:
        if len(blocks) == 1:
            return blocks[0]
        return np.concatenate(blocks, axis=0)
    offset = 0
    for block in blocks:
        out[offset : offset + len(block)] = block
        offset += len(block)
    return out


class AdaptiveBatchPolicy:
    """Decide how long the dispatcher may keep coalescing a batch.

    Parameters
    ----------
    max_batch:
        Target batch capacity in samples (a single oversized request still
        dispatches alone; the worker chunks it internally).
    max_delay_ms:
        Ceiling on how long the oldest pending request may wait for a
        busy pool before its batch is dispatched, full or not.  An idle
        shard never waits for it.
    """

    def __init__(self, max_batch: int, max_delay_ms: float = 2.0):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_ms < 0:
            raise ValueError(f"max_delay_ms must be >= 0, got {max_delay_ms}")
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_ms) / 1e3

    def wait_budget(self, pending_samples: int, oldest_age_s: float,
                    shard_idle: bool,
                    deadline_slack_s: float | None = None) -> float:
        """Seconds the dispatcher may keep waiting for more requests.

        ``pending_samples`` is the queued sample count, ``oldest_age_s``
        how long ago the oldest pending request arrived and
        ``shard_idle`` whether any live shard has nothing outstanding.
        ``deadline_slack_s`` (optional) is the smallest remaining
        QoS-deadline slack among the queued requests: the wait is
        clamped to half of it, so a request near its deadline dispatches
        (possibly in a partial batch) instead of expiring in the
        coalescing wait.  Returns 0 when the batch should be dispatched
        immediately.
        """
        if shard_idle or pending_samples >= self.max_batch:
            return 0.0
        remaining = self.max_delay_s - oldest_age_s
        if deadline_slack_s is not None:
            remaining = min(remaining, deadline_slack_s * 0.5)
        return max(0.0, remaining)

    def summary(self) -> dict:
        """The rule's settings, for ``stats()``."""
        return {"max_batch": self.max_batch,
                "max_delay_ms": self.max_delay_s * 1e3}
