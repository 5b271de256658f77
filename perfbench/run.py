"""Answer-checked, open-loop serving benchmark of the VITAL stack.

Run from the root of a checkout:

    python3 perfbench/run.py --workload direct-sparse --seed 1 \\
        --seconds 15 --trace 0

The first run trains the served model and surveys the readings it sends,
and caches both under ``.bench_build/perfbench``; later runs reuse them.
One run:

1. draws its inputs from ``--seed``: Poisson send times and which
   surveyed readings (base and extended phones) are sent, then runs DAM
   on them as the phones would, before any timing;
2. computes the offline reference, ``restore_session(snapshot).predict``
   on the snapshot the workload serves, and checks that the answer
   oracle passes a correct answer and flags a mismatched one;
3. sets the stack up ``SETUP_REPS_BEFORE`` times, each timed from
   trained weights to the first correct answer, and keeps the last one
   running;
4. sends the requests open loop for ``--seconds``, as ``REPLAYS``
   back-to-back replays of one Poisson schedule (each replay with its
   own readings), and checks every answer against the reference, then
   closes the stack and times ``SETUP_REPS_AFTER`` more set-ups;
5. with ``--trace 1``, plays one more replay on a stack built with
   ``trace_sample=1.0`` and ``profile=True`` and reports per-layer
   metrics instead of end-to-end ones.

See ``perfbench/README.md`` for the workloads, the metrics and how each
is computed.

The last line of standard output is one JSON object: ``correct`` (the
oracle's self-check passed, the served snapshot is the one the reference
was computed on, and every request was accounted for and checked),
``attempted`` and ``failed`` (failed = refused, errored, timed out or
answered wrong), and ``metrics``.
"""

from __future__ import annotations

import os

BLAS_THREADS = ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS")
for _name in BLAS_THREADS:  # before NumPy loads: one BLAS thread per process
    os.environ[_name] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import pickle  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    sys.exit(f"perfbench: no program source under {SRC}; "
             "run from the root of a repository checkout")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import layers  # noqa: E402
import loadgen  # noqa: E402
import stack  # noqa: E402
from loadgen import ERROR, OK, TIMEOUT, WRONG  # noqa: E402
from repro.infer import restore_session  # noqa: E402

CACHE_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
#: Client timeout.  A request that fails, is refused, times out or is
#: answered wrong is charged this on top of what the client waited, so
#: turning a wrong answer into a right one can only lower the latencies.
TIMEOUT_S = 1.0
#: Latency limit of goodput: the 50 ms objective of
#: ``repro.obs.monitor.default_serving_slos``.
SLO_MS = 50.0
#: Set-ups timed before and after the window.  Set-up times drift with
#: the host over a second or so; timing set-ups on both sides of the
#: window keeps one such stretch from setting a run's median.
SETUP_REPS_BEFORE = 7
SETUP_REPS_AFTER = 7
#: Times each run plays its schedule, each replay with its own readings.
REPLAYS = 5
#: A run whose generator sent its p99 request later than this is marked
#: as paced by the generator rather than the program.
BEHIND_LAG_MS = 5.0
#: Readings reserved for the set-up's first request: fixed for every seed
#: and never sent in a window.
WARMUP_READINGS = 3
WARMUP_SEED = 12345


class Workload(NamedTuple):
    path: str        # "direct": submit() in-process; "gateway": framed TCP
    precision: str   # "float32" LocalizationServer | "int8" FleetServer
    rate: float      # offered load, requests per second
    pool: int | None  # None: fresh readings; n: cycle through n readings


#: Why each workload: see ``perfbench/README.md`` and ``BENCHMARK.json``.
WORKLOADS = {
    "direct-sparse": Workload("direct", "float32", 80.0, None),
    "direct-loaded": Workload("direct", "int8", 300.0, None),
    "gateway-fresh": Workload("gateway", "int8", 200.0, None),
    "gateway-colocated": Workload("gateway", "int8", 200.0, 64),
}

#: End-to-end metric units (``--trace 0``).
END_TO_END = {
    "latency_p50_ms": "ms", "latency_p99_ms": "ms", "goodput_rps": "1/s",
    "error_rate": "ratio", "wrong_answer_rate": "ratio",
    "mean_error_m": "m", "setup_s": "s", "peak_rss_mb": "MiB",
}

#: Per-layer metric units (``--trace 1``), by layer.
PER_LAYER = {
    "loadgen.lag_p99_ms": "ms", "loadgen.sent": "count",
    "dam.process_us": "us",
    "gateway.bytes_in_per_req": "bytes", "gateway.bytes_out_per_req": "bytes",
    "gateway.parse_ms_p50": "ms", "gateway.inference_ms_p50": "ms",
    "gateway.window_stalls": "count", "gateway.shed": "count",
    "cache.hit_rate": "ratio", "cache.wrong_hit_rate": "ratio",
    "cache.entries": "count",
    "admission.submit_us_p50": "us", "admission.rejected": "count",
    "admission.expired": "count",
    "batcher.queue_wait_ms_p50": "ms", "batcher.queue_wait_ms_p99": "ms",
    "batcher.batch_form_ms_p50": "ms", "batcher.mean_batch_size": "samples",
    "batcher.batches": "count",
    "transport.write_ms_p50": "ms", "transport.worker_recv_ms_p50": "ms",
    "transport.read_ms_p50": "ms", "transport.bytes_per_batch": "bytes",
    "transport.spills": "count",
    "engine.compute_ms_p50": "ms", "engine.compute_ms_p99": "ms",
    **{f"engine.phase.{name}_ms": "ms" for name in layers.PHASES},
    "engine.predict_ms_b1": "ms", "engine.predict_ms_b32": "ms",
    "setup.compile_s": "s", "setup.quantize_s": "s", "setup.publish_s": "s",
    "setup.start_s": "s", "setup.deploy_s": "s", "setup.gateway_start_s": "s",
    "setup.first_answer_ms": "ms", "fleet.snapshot_bytes": "bytes",
    "trace.span_coverage": "ratio", "trace.overhead_p50": "ratio",
}


def _reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current resident size,
    so training and input preparation do not count as the server's."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live worker
    processes (the server's shards), from ``VmHWM``."""
    pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def _child_pids() -> list[int]:
    """Every process whose parent is this one, zombies included."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop and reap every process this run started, so none outlives it.

    Shared-memory rings start ``multiprocessing``'s resource tracker,
    which otherwise exits only after this process has; its ``_stop``
    closes the tracker's pipe and waits for it.  Shard workers are
    joined by ``close()``; any child still left is killed and reaped.
    """
    for process in multiprocessing.active_children():
        process.terminate()
        process.join(timeout=5.0)
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ChildProcessError, ProcessLookupError):
            pass


def _rate(count: int, total: int) -> float:
    """Jeffreys estimate ``(k + 1/2) / (n + 1)`` of a failure share: it
    never reads exactly 0 or 1, so a relative bound applies to it."""
    return (count + 0.5) / (total + 1)


class Inputs(NamedTuple):
    offsets: np.ndarray     # intended send times, s from replay start
    picks: np.ndarray       # (replays, n) survey reading per request
    idx: np.ndarray         # (replays, n) row of ``images`` per request
    images: np.ndarray      # DAM images of the distinct readings
    dam_s: np.ndarray       # DAM seconds per distinct reading
    reference: np.ndarray   # offline logits per distinct reading
    warm_images: np.ndarray
    warm_reference: np.ndarray
    calibration: np.ndarray | None
    digest: str             # of the snapshot the reference was run on


def prepare(workload: Workload, bundle: dict, seed: int,
            seconds: float) -> Inputs:
    """Everything a run sends and checks against, made from ``seed``
    before any timing: schedule, readings, DAM images, reference."""
    rng = np.random.default_rng(seed)
    labels = bundle["labels"]
    warm = np.random.default_rng(WARMUP_SEED).choice(
        len(labels), WARMUP_READINGS, replace=False)
    offsets = loadgen.poisson_offsets(rng, workload.rate, seconds / REPLAYS)
    picks = loadgen.draw_readings(rng, labels, bundle["devices"],
                                  REPLAYS * len(offsets), workload.pool,
                                  exclude=warm)
    unique, idx = np.unique(picks, return_inverse=True)
    picks = picks.reshape(REPLAYS, -1)
    idx = idx.reshape(REPLAYS, -1)
    dam = bundle["dam"]
    images, dam_s = stack.dam_images(dam, bundle["features"][unique])
    warm_images, _ = stack.dam_images(dam, bundle["features"][warm])
    calibration = None
    if workload.precision == "int8":
        calibration = dam.process(bundle["calibration_features"],
                                  training=False, as_image=True)
    snapshot = stack.build_snapshot(bundle, workload.precision, calibration)
    return Inputs(offsets, picks, idx, images, dam_s,
                  stack.reference_logits(snapshot, images), warm_images,
                  stack.reference_logits(snapshot, warm_images), calibration,
                  stack.digest(snapshot))


def deploy(workload: Workload, bundle: dict, inputs: Inputs, workdir: str,
           name: str, traced: bool = False) -> stack.Deployment:
    return stack.deploy(bundle, workload.precision,
                        workload.path == "gateway", inputs.calibration,
                        inputs.warm_images, inputs.warm_reference,
                        os.path.join(workdir, name), traced=traced,
                        timeout_s=TIMEOUT_S)


def drive(workload: Workload, deployment: stack.Deployment, inputs: Inputs,
          workdir: str, replays: int = REPLAYS, traced: bool = False) -> dict:
    """Open-loop replays of the schedule; returns the generator's record
    with every request classified against the reference."""
    idx = inputs.idx[:replays]
    if workload.path == "direct":
        run = loadgen.run_direct(deployment.server, deployment.model,
                                 inputs.images, idx, inputs.offsets,
                                 TIMEOUT_S, breakdown=traced)
    else:
        run = loadgen.run_gateway(deployment.gateway.port, deployment.model,
                                  inputs.images, idx, inputs.offsets,
                                  inputs.reference.shape[1], TIMEOUT_S,
                                  workdir, SRC)
    latency = run["done"] - run["due"]
    status = run["status"].copy()
    status[(status == OK) & ~(latency <= TIMEOUT_S)] = TIMEOUT
    rows = idx.reshape(-1)
    for k in np.flatnonzero(status == OK):
        if not stack.answer_ok(run["logits"][k], inputs.reference[rows[k]]):
            status[k] = WRONG
    run.update(status=status, latency_s=latency, replays=replays,
               picks=inputs.picks[:replays].reshape(-1))
    return run


def end_to_end(run: dict, bundle: dict, setups: list[dict],
               rss_mb: float) -> dict:
    """The user-facing metrics of the untraced replays (README.md)."""
    status, latency = run["status"], run["latency_s"]
    n = len(status)
    ok = status == OK
    waited = np.where(np.isnan(latency), TIMEOUT_S,
                      np.minimum(latency, TIMEOUT_S))
    charged_ms = 1e3 * np.where(ok, waited, TIMEOUT_S + waited)
    # A slot's latency is the median of its replays: one replay caught by
    # a host stall does not move it.
    slot_ms = np.median(charged_ms.reshape(run["replays"], -1), axis=0)
    span_s = sum(max(np.nanmax(done, initial=due[-1]), due[-1]) - due[0]
                 for done, due in zip(
                     run["done"].reshape(run["replays"], -1),
                     run["due"].reshape(run["replays"], -1)))
    good = int(np.sum(ok & (latency * 1e3 <= SLO_MS)))
    answered = np.flatnonzero((status == OK) | (status == WRONG))
    locations = bundle["rp_locations"]
    served_rp = [int(np.argmax(run["logits"][i])) for i in answered]
    truth_rp = bundle["labels"][run["picks"][answered]]
    if not len(answered):
        raise RuntimeError("no request of the window was answered")
    errors_m = np.linalg.norm(locations[served_rp] - locations[truth_rp],
                              axis=1)
    return {
        "latency_p50_ms": float(np.percentile(slot_ms, 50)),
        "latency_p99_ms": float(np.percentile(slot_ms, 99)),
        "goodput_rps": (good + 0.5) / span_s,
        "error_rate": _rate(int(np.sum(~ok)), n),
        "wrong_answer_rate": _rate(int(np.sum(status == WRONG)), n),
        "mean_error_m": float(errors_m.mean()),
        "setup_s": statistics.median(s["total_s"] for s in setups),
        "peak_rss_mb": rss_mb,
    }


def run_facts(run: dict) -> dict:
    """Validity facts of one window: what was sent, how it ended, and
    whether the generator kept to its schedule."""
    lag_ms = (run["sent"] - run["due"]) * 1e3
    status = run["status"]
    hits = run["cache"] == 1
    lag_p99 = float(np.percentile(lag_ms, 99))
    return {
        "sent": len(status),
        "ok": int(np.sum(status == OK)),
        "wrong": int(np.sum(status == WRONG)),
        "errors": int(np.sum(status == ERROR)),
        "timeouts": int(np.sum(status == TIMEOUT)),
        "repeat_share": loadgen.repeat_share(run["picks"]),
        "cache_hit_share": float(np.mean(hits)),
        "wrong_hits": int(np.sum(hits & (status == WRONG))),
        "hits": int(np.sum(hits)),
        "lag_p99_ms": lag_p99,
        "generator_behind": lag_p99 > BEHIND_LAG_MS,
        "threads": run["threads"],
        "connections": run["connections"],
    }


def _answered_p50_ms(run: dict) -> float:
    latency = run["latency_s"][(run["status"] == OK)
                               | (run["status"] == WRONG)]
    return float(np.percentile(latency, 50)) * 1e3 if len(latency) else 0.0


def _predict_ms(snapshot: dict, images: np.ndarray, batch: int,
                reps: int) -> float:
    session = restore_session(snapshot)
    x = np.resize(images, (batch, *images.shape[1:]))
    session.predict(x)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        session.predict(x)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def traced_layers(workload: Workload, bundle: dict, inputs: Inputs,
                  workdir: str, untraced: dict, facts: dict,
                  setups: list[dict]) -> dict:
    """The per-layer metrics: one window on a traced, profiled stack."""
    deployment = deploy(workload, bundle, inputs, workdir, "registry-traced",
                        traced=True)
    try:
        before = layers.counters(deployment)
        run = drive(workload, deployment, inputs, workdir, replays=1,
                    traced=True)
        after = layers.counters(deployment)
        delta = {key: after[key] - before[key] for key in before}
        traced_facts = run_facts(run)
        metrics = layers.per_layer(deployment, run, delta,
                                   after.get("cache_entries", 0),
                                   traced_facts["wrong_hits"],
                                   traced_facts["hits"])
        coverage = layers.span_coverage(deployment, run, delta)
        snapshot = deployment.snapshot
    finally:
        deployment.close()

    def setup_median(step: str) -> float:
        return statistics.median(s.get(step, 0.0) for s in setups)

    untraced_p50 = _answered_p50_ms(untraced)
    metrics.update({
        "loadgen.lag_p99_ms": facts["lag_p99_ms"],
        "loadgen.sent": facts["sent"],
        "dam.process_us": float(np.median(inputs.dam_s)) * 1e6,
        "engine.predict_ms_b1": _predict_ms(snapshot, inputs.images, 1, 200),
        "engine.predict_ms_b32": _predict_ms(snapshot, inputs.images, 32, 30),
        "setup.compile_s": setup_median("compile_s"),
        "setup.quantize_s": setup_median("quantize_s"),
        "setup.publish_s": setup_median("publish_s"),
        "setup.start_s": setup_median("start_s"),
        "setup.deploy_s": setup_median("deploy_s"),
        "setup.gateway_start_s": setup_median("gateway_start_s"),
        "setup.first_answer_ms": setup_median("first_answer_s") * 1e3,
        "fleet.snapshot_bytes": len(pickle.dumps(
            snapshot, protocol=pickle.HIGHEST_PROTOCOL)),
        "trace.span_coverage": float(np.median(coverage)) if coverage
        else 0.0,
        "trace.overhead_p50": (_answered_p50_ms(run) / untraced_p50
                               if untraced_p50 else 0.0),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    bundle = stack.load_bundle(CACHE_DIR)
    inputs = prepare(workload, bundle, args.seed, args.seconds)
    oracle_ok = stack.oracle_self_check(inputs.reference)
    workdir = tempfile.mkdtemp(prefix="run-", dir=CACHE_DIR)
    # The model, survey and inputs held here are the harness's, not the
    # server's: keep the collector from walking them on every full pass,
    # which would add the harness's heap to the server's GC pauses.
    gc.freeze()
    _reset_peak_rss()
    try:
        setups, deployment = [], None
        for rep in range(SETUP_REPS_BEFORE):
            if deployment is not None:
                deployment.close()
            deployment = deploy(workload, bundle, inputs, workdir,
                                f"registry{rep}")
            setups.append(deployment.steps)
        try:
            served_ok = stack.digest(deployment.snapshot) == inputs.digest
            run = drive(workload, deployment, inputs, workdir)
            rss_mb = _peak_rss_mb()
        finally:
            deployment.close()
        for rep in range(SETUP_REPS_AFTER):
            deployment = deploy(workload, bundle, inputs, workdir,
                                f"registry-after{rep}")
            setups.append(deployment.steps)
            deployment.close()
        metrics = end_to_end(run, bundle, setups, rss_mb)
        facts = run_facts(run)
        layer_metrics = (traced_layers(workload, bundle, inputs, workdir,
                                       run, facts, setups)
                         if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = bool(oracle_ok and served_ok)
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "offered_rps": workload.rate,
        "oracle_self_check": oracle_ok, "served_snapshot_is_reference":
        served_ok, **facts,
        "setup_steps_s": {step: statistics.median(s.get(step, 0.0)
                                                  for s in setups)
                          for step in setups[-1]},
        "host": {"nproc": os.cpu_count(),
                 **{name: os.environ.get(name) for name in BLAS_THREADS}},
    }
    print("info " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:<20} {value:>14.6g} {END_TO_END[name]}")
    if layer_metrics is not None:
        chosen = {name: {"value": layer_metrics[name], "unit": unit}
                  for name, unit in PER_LAYER.items()}
        for name, cell in chosen.items():
            print(f"  {name:<32} {cell['value']:>14.6g} {cell['unit']}")
    else:
        chosen = {name: {"value": value, "unit": END_TO_END[name]}
                  for name, value in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": facts["sent"],
                      "failed": facts["sent"] - facts["ok"],
                      "metrics": chosen}))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
