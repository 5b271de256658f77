"""Shared fixtures for the serving tests."""

import contextlib
import os
import signal
import time

import numpy as np
import pytest


@contextlib.contextmanager
def _stall_worker(server):
    """Hold ``server``'s only worker busy until ``resume()`` is called.

    The worker is ``SIGSTOP``-ped and handed one plug request, which is
    then cancelled: its batch stays in flight, so the shard counts as
    busy and the work-conserving batcher keeps every later request
    queued (up to ``max_delay_ms``) instead of dispatching it.  That
    gives tests a backlog that does not depend on timing.  The worker is
    ``SIGCONT``-ed on exit in any case."""
    (shard,) = server._shards
    pid = shard.process.pid

    def resume():
        os.kill(pid, signal.SIGCONT)  # a no-op once the worker runs

    os.kill(pid, signal.SIGSTOP)
    try:
        plug = server.submit(np.zeros(
            (1, server.image_size, server.image_size, server.channels),
            dtype=np.float32,
        ))
        deadline = time.monotonic() + 10.0
        while not shard.outstanding:
            assert time.monotonic() < deadline, "plug request never dispatched"
            time.sleep(0.001)
        server.cancel(plug)
        yield resume
    finally:
        resume()


@pytest.fixture()
def stall_worker():
    """``with stall_worker(server) as resume:`` — see :func:`_stall_worker`."""
    return _stall_worker
