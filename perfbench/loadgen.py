"""Seeded open-loop load: arrival schedules, reading draws and the two
request generators.

Arrivals are a Poisson process conditioned on its count: ``rate x
seconds`` send times drawn uniformly over the window and sorted.  Every
latency is timed from a request's *intended* send time, so a stall in the
program delays the clock of every request queued behind it instead of
slowing the generator down.

A run plays its schedule several times back to back (*replays*), each
replay with its own readings; request ``k`` is slot ``k % n`` of replay
``k // n``.  Results are flat arrays over all requests.

* :func:`run_direct` drives ``submit`` from one thread inside the server's
  process (``submit`` is a Python API).
* :func:`run_gateway` starts this module as a separate process that
  pipelines pre-encoded frames over one connection, with one sending and
  one receiving thread.  Run as a script it is that process:
  ``python3 loadgen.py JOB.npz OUT.npz``.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import threading
import time
from functools import partial

import numpy as np

from repro.serve import DeadlineExpired, GatewayClient, RouteOverloaded
from repro.serve.gateway import protocol

#: Gap between the end of preparation (or of the previous replay) and the
#: first intended send of a replay.
LEAD_S = 0.05

#: Per-request outcome codes.
OK, WRONG, ERROR, TIMEOUT = 0, 1, 2, 3


def poisson_offsets(rng: np.random.Generator, rate: float,
                    seconds: float) -> np.ndarray:
    """Intended send times (seconds from the replay start)."""
    count = max(1, int(round(rate * seconds)))
    return np.sort(rng.uniform(0.0, seconds, count))


def _spread_over(rng: np.random.Generator, candidates: np.ndarray,
                 cells: np.ndarray) -> np.ndarray:
    """``candidates`` in random order, reordered so that every cell gives
    its first reading before any cell gives its second."""
    shuffled = rng.permutation(candidates)
    cell = cells[shuffled]
    order = np.argsort(cell, kind="stable")
    starts = np.searchsorted(cell[order], cell[order])
    rank = np.empty(len(shuffled), dtype=np.int64)
    rank[order] = np.arange(len(shuffled)) - starts
    priority = rng.permutation(cells.max() + 1)[cell]
    return shuffled[np.lexsort((priority, rank))]


def draw_readings(rng: np.random.Generator, labels: np.ndarray,
                  devices: np.ndarray, count: int, pool: int | None,
                  exclude) -> np.ndarray:
    """Survey-reading index per request, in send order.

    ``pool=None`` draws ``count`` distinct readings (no repeats), spread
    evenly over (reference point, phone) pairs so the accuracy of a draw
    does not hinge on which spots it happened to favour.  With a pool,
    requests cycle through ``pool`` readings placed at distinct reference
    points first (stationary phones polling from fixed spots).
    """
    candidates = np.setdiff1d(np.arange(len(labels)), exclude)
    if pool is None:
        if count > len(candidates):
            raise ValueError(f"{count} fresh readings wanted, "
                             f"{len(candidates)} surveyed")
        _, phone = np.unique(devices, return_inverse=True)
        cells = labels * (phone.max() + 1) + phone
        return _spread_over(rng, candidates, cells)[:count]
    spots = _spread_over(rng, candidates, labels)[:pool]
    return spots[np.arange(count) % pool]


def repeat_share(picks: np.ndarray) -> float:
    """Share of requests whose reading was already sent earlier."""
    return 1.0 - len(np.unique(picks)) / len(picks)


def _pace(due: float) -> float:
    now = time.perf_counter()
    if now < due:
        time.sleep(due - now)
        now = time.perf_counter()
    return now


def run_direct(server, model, images: np.ndarray, idx: np.ndarray,
               offsets: np.ndarray, timeout_s: float,
               breakdown: bool = False) -> dict:
    """Open-loop ``submit``: replay ``r`` sends ``images[idx[r, i]]`` at
    ``offsets[i]``, and the next replay starts once it has finished.

    Completion is stamped by the ``on_done`` callback.  A request refused
    at ``submit`` or failed server-side is an ``ERROR``; one not answered
    within ``timeout_s`` of its intended send time is a ``TIMEOUT`` (and
    is cancelled).  With ``breakdown`` the traced span chains are kept.
    """
    replays, n = idx.shape
    total = replays * n
    due = np.empty(total)
    done = np.full(total, np.nan)
    sent = np.empty(total)
    submit_s = np.empty(total)
    status = np.full(total, ERROR, dtype=np.int8)
    logits = [None] * total
    breakdowns = [None] * total

    def stamp(k, _request_id):
        done[k] = time.perf_counter()

    for replay in range(replays):
        base = replay * n
        due[base:base + n] = time.perf_counter() + LEAD_S + offsets
        ids: list = [None] * n
        for i in range(n):
            k = base + i
            sent[k] = t0 = _pace(due[k])
            try:
                ids[i] = server.submit(images[idx[replay, i]], model=model,
                                       on_done=partial(stamp, k))
            except RouteOverloaded:
                done[k] = time.perf_counter()  # refused: the client knows
            submit_s[k] = time.perf_counter() - t0
        deadline = due[base + n - 1] + timeout_s
        for i, request_id in enumerate(ids):
            if request_id is None:
                continue
            k = base + i
            wait = max(0.0, deadline - time.perf_counter())
            try:
                logits[k], breakdowns[k] = server.result_with_breakdown(
                    request_id, timeout=wait)
                status[k] = OK
            except TimeoutError:
                server.cancel(request_id)
                status[k] = TIMEOUT
                done[k] = np.nan
            except (DeadlineExpired, RuntimeError):
                pass
    return {"due": due, "sent": sent, "done": done, "status": status,
            "logits": logits, "cache": np.full(total, -1, dtype=np.int8),
            "submit_s": submit_s,
            "breakdowns": breakdowns if breakdown else None,
            "threads": 1, "connections": 0}


def run_gateway(port: int, model: str, images: np.ndarray, idx: np.ndarray,
                offsets: np.ndarray, classes: int, timeout_s: float,
                workdir: str, src_dir: str) -> dict:
    """Run the generator process against the gateway on ``port`` and
    collect its per-request stamps and replies."""
    job = os.path.join(workdir, "job.npz")
    out = os.path.join(workdir, "replies.npz")
    np.savez(job, images=images, idx=idx, offsets=offsets, port=port,
             model=model, classes=classes, timeout_s=timeout_s)
    env = dict(os.environ, PYTHONPATH=src_dir)
    process = subprocess.Popen([sys.executable, os.path.abspath(__file__),
                                job, out], env=env)
    try:
        budget = idx.shape[0] * (offsets[-1] + timeout_s + 1.0) + 30.0
        code = process.wait(timeout=budget)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0:
        raise RuntimeError(f"gateway load generator exited with {code}")
    with np.load(out) as replies:
        reply = {key: replies[key] for key in replies.files}
    os.remove(job)
    os.remove(out)
    status = np.where(np.isnan(reply["done"]), TIMEOUT,
                      np.where(reply["error"] > 0, ERROR, OK)).astype(np.int8)
    logits = [row if outcome == OK else None
              for row, outcome in zip(reply["logits"], status)]
    return {"due": reply["due"], "sent": reply["sent"],
            "done": reply["done"], "status": status, "logits": logits,
            "cache": reply["cache"], "submit_s": None, "breakdowns": None,
            "threads": 2, "connections": 1}


def _gateway_main(job_path: str, out_path: str) -> None:
    with np.load(job_path) as job:
        images, idx, offsets = job["images"], job["idx"], job["offsets"]
        port, model = int(job["port"]), str(job["model"])
        classes, timeout_s = int(job["classes"]), float(job["timeout_s"])
    replays, n = idx.shape
    total = replays * n
    flat = idx.reshape(-1)
    frames = [protocol.encode_frame({"id": k, "model": model,
                                     "fingerprint": images[flat[k]]
                                     .ravel().tolist()})
              for k in range(total)]
    due = np.empty(total)
    sent = np.empty(total)
    done = np.full(total, np.nan)
    error = np.zeros(total, dtype=np.int8)
    cache = np.full(total, -1, dtype=np.int8)
    logits = np.full((total, classes), np.nan, dtype=np.float32)

    client = GatewayClient("127.0.0.1", port, timeout=None)
    sock = client.sock
    decoder = protocol.FrameDecoder()

    def receive(first: int, stop_at: list) -> None:
        """File replies for requests ``first .. first + n - 1`` until all
        have one or ``stop_at[0]`` passes."""
        answered = 0
        while answered < n and time.perf_counter() < stop_at[0]:
            readable, _, _ = select.select([sock], [], [], 0.05)
            if not readable:
                continue
            data = sock.recv(1 << 18)
            now = time.perf_counter()
            if not data:
                return
            for event in decoder.feed(data):
                if event[0] != "msg":
                    continue
                obj = event[1]
                k = obj.get("id")
                if not isinstance(k, int) or not first <= k < first + n \
                        or not np.isnan(done[k]):
                    continue
                done[k] = now
                answered += 1
                answer = obj.get("logits")
                if obj.get("ok") and isinstance(answer, list) \
                        and len(answer) == classes:
                    logits[k] = answer
                    cache[k] = 1 if obj.get("cache") == "hit" else 0
                else:
                    error[k] = 1

    try:
        for replay in range(replays):
            base = replay * n
            stop_at = [float("inf")]
            receiver = threading.Thread(target=receive, args=(base, stop_at),
                                        name="loadgen-recv")
            receiver.start()
            due[base:base + n] = time.perf_counter() + LEAD_S + offsets
            try:
                for k in range(base, base + n):
                    sent[k] = _pace(due[k])
                    sock.sendall(frames[k])
            finally:
                stop_at[0] = due[base + n - 1] + timeout_s
                receiver.join()
    finally:
        client.close()
    np.savez(out_path, due=due, sent=sent, done=done, error=error,
             cache=cache, logits=logits)


if __name__ == "__main__":
    _gateway_main(sys.argv[1], sys.argv[2])
