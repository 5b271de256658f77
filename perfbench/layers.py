"""Per-layer metrics of one traced run.

Sources, all public: ``stats()`` and ``GatewayServer.summary()`` counters
(read before and after the window, so set-up traffic is excluded), the
server's span chains (``result_with_breakdown`` on the direct path, the
trace buffer behind a gateway), the profiler's compute phases
(``profile=True``) and the gateway tracer's spans.  A metric whose layer
does no work on a workload reads 0.
"""

from __future__ import annotations

import numpy as np

PHASES = ("patch_gather", "embed", "block0", "final_norm_pool", "head")


def counters(deployment) -> dict:
    """The cumulative counters the per-layer metrics difference."""
    stats = deployment.server.stats()
    shards = stats["shards"]
    transport = stats["transport"]
    admission = stats["admission"]
    out = {
        "batches": sum(s["batches"] for s in shards),
        "samples": sum(s["samples"] for s in shards),
        "transport_batches": transport["shm_batches"]
        + transport["pickle_batches"],
        "transport_bytes": transport["shm_bytes"] + transport["pickle_bytes"],
        "spills": transport["spills"],
        "rejected": admission["rejected"],
        "expired": sum(cell.get("expired", 0)
                       for cell in admission["counters"].values()),
        "server_traces": deployment.server.tracer.recorded,
    }
    if deployment.gateway is not None:
        gateway = deployment.gateway.summary()
        out.update({
            "gw_bytes_in": gateway["bytes"]["in"],
            "gw_bytes_out": gateway["bytes"]["out"],
            "gw_received": gateway["requests"]["received"],
            "gw_window_stalls": gateway["inflight"]["window_stalls"],
            "gw_shed": gateway["requests"]["shed"],
            "cache_hits": gateway["cache"]["hits"],
            "cache_misses": gateway["cache"]["misses"],
            "cache_entries": gateway["cache"]["entries"],
            "gw_traces": deployment.gateway.tracer.recorded,
        })
    return out


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def _newest(tracer, count: int) -> list:
    """The ``count`` traces recorded last (the window's, not set-up's)."""
    return tracer.traces(count) if count > 0 else []


def _server_traces(deployment, run, delta) -> list[dict]:
    """Span chains of the server-side requests of the traced window."""
    if run["breakdowns"] is not None:
        return [b for b in run["breakdowns"] if b is not None]
    return [t.to_dict() for t in
            _newest(deployment.server.tracer, delta["server_traces"])]


def _durations(traces, *names) -> list[float]:
    return [span["duration_ms"] for trace in traces
            for span in trace["spans"] if span["name"] in names]


def span_coverage(deployment, run, delta) -> list[float]:
    """Per request: the span sum the program recorded for it divided by
    the latency the client saw (server chain on the direct path, gateway
    chain behind a gateway, joined on the request id)."""
    latency_ms = (run["done"] - run["due"]) * 1e3
    ratios = []
    if deployment.gateway is None:
        for i, trace in enumerate(run["breakdowns"] or ()):
            if trace is not None and latency_ms[i] > 0:
                ratios.append(sum(s["duration_ms"] for s in trace["spans"])
                              / latency_ms[i])
        return ratios
    for trace in _newest(deployment.gateway.tracer, delta["gw_traces"]):
        i = trace.request_id
        if 0 <= i < len(latency_ms) and latency_ms[i] > 0:
            ratios.append(trace.span_sum_ms / latency_ms[i])
    return ratios


def per_layer(deployment, run, delta: dict, cache_entries: int,
              wrong_hits: int, hits_seen: int) -> dict:
    """Gateway, cache, admission, batcher, transport and engine metrics of
    the traced window ``run`` on ``deployment``; ``delta`` holds the
    window's :func:`counters` differences."""
    traces = _server_traces(deployment, run, delta)
    queue = _durations(traces, "enqueue")
    compute = _durations(traces, "compute")
    phases = {name: [t["compute_phases"][name]["total_ms"] for t in traces
                     if name in (t.get("compute_phases") or {})]
              for name in PHASES}
    submit_us = (run["submit_s"][~np.isnan(run["submit_s"])] * 1e6
                 if run["submit_s"] is not None else ())
    metrics = {
        "admission.submit_us_p50": _pct(submit_us, 50),
        "admission.rejected": delta["rejected"],
        "admission.expired": delta["expired"],
        "batcher.queue_wait_ms_p50": _pct(queue, 50),
        "batcher.queue_wait_ms_p99": _pct(queue, 99),
        "batcher.batch_form_ms_p50": _pct(_durations(traces, "batch_form"),
                                          50),
        "batcher.mean_batch_size": _ratio(delta["samples"], delta["batches"]),
        "batcher.batches": delta["batches"],
        "transport.write_ms_p50": _pct(
            _durations(traces, "shm_write", "pickle_write"), 50),
        "transport.worker_recv_ms_p50": _pct(
            _durations(traces, "worker_recv"), 50),
        "transport.read_ms_p50": _pct(
            _durations(traces, "shm_read", "result_read"), 50),
        "transport.bytes_per_batch": _ratio(delta["transport_bytes"],
                                            delta["transport_batches"]),
        "transport.spills": delta["spills"],
        "engine.compute_ms_p50": _pct(compute, 50),
        "engine.compute_ms_p99": _pct(compute, 99),
    }
    for name in PHASES:
        metrics[f"engine.phase.{name}_ms"] = _pct(phases[name], 50)
    gateway = {"gateway.bytes_in_per_req": 0.0,
               "gateway.bytes_out_per_req": 0.0,
               "gateway.parse_ms_p50": 0.0,
               "gateway.inference_ms_p50": 0.0,
               "gateway.window_stalls": 0,
               "gateway.shed": 0,
               "cache.hit_rate": 0.0,
               "cache.wrong_hit_rate": 0.0,
               "cache.entries": 0}
    if deployment.gateway is not None:
        spans = [t.to_dict() for t in
                 _newest(deployment.gateway.tracer, delta["gw_traces"])]
        gateway.update({
            "gateway.bytes_in_per_req": _ratio(delta["gw_bytes_in"],
                                               delta["gw_received"]),
            "gateway.bytes_out_per_req": _ratio(delta["gw_bytes_out"],
                                                delta["gw_received"]),
            "gateway.parse_ms_p50": _pct(_durations(spans, "gw_parse"), 50),
            "gateway.inference_ms_p50": _pct(_durations(spans, "inference"),
                                             50),
            "gateway.window_stalls": delta["gw_window_stalls"],
            "gateway.shed": delta["gw_shed"],
            "cache.hit_rate": _ratio(delta["cache_hits"],
                                     delta["cache_hits"]
                                     + delta["cache_misses"]),
            "cache.wrong_hit_rate": _ratio(wrong_hits, hits_seen),
            "cache.entries": cache_entries,
        })
    metrics.update(gateway)
    return metrics
