"""Admission control + QoS: policies and their CLI shorthand, token
buckets, SLO-shed engage/escalate/disengage hysteresis, bounded queues
(per-route and server-wide, including a shard-kill churn window),
deadline expiry in the queue, elastic shard shares, fleet policy
persistence across swaps, and the gateway/client overload surface.
Tiny models throughout so the whole file runs in seconds on one core."""

import json
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.fleet import FleetServer
from repro.infer import InferenceSession
from repro.serve import DEFAULT_MODEL, LocalizationServer
from repro.serve.admission import (
    PRIORITIES,
    AdmissionController,
    Autoscaler,
    DeadlineExpired,
    QosPolicy,
    RouteOverloaded,
    TokenBucket,
    load_qos_file,
    save_qos_file,
)
from repro.serve.gateway import GatewayClient, GatewayError, GatewayServer
from repro.serve.shm import HAVE_SHM, align
from repro.vit import VitalConfig, VitalModel

needs_shm = pytest.mark.skipif(
    not HAVE_SHM, reason="multiprocessing.shared_memory unavailable"
)


def _tiny_session(max_batch: int = 8, seed: int = 0) -> InferenceSession:
    config = VitalConfig(
        image_size=12, patch_size=3, projection_dim=24, num_heads=4,
        encoder_blocks=1, encoder_mlp_units=(32, 16), head_units=(32,),
    )
    model = VitalModel(config, image_size=12, channels=3, num_classes=5,
                       rng=np.random.default_rng(seed))
    model.eval()
    return InferenceSession(model, max_batch=max_batch)


@pytest.fixture(scope="module")
def session():
    return _tiny_session()


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(7)
    return rng.standard_normal((37, 12, 12, 3)).astype(np.float32)


#: Ring sized to hold exactly one full 8-sample batch (input + output
#: blocks) — the second dispatched batch must wait for the lease.
ONE_BATCH_RING = align(8 * 12 * 12 * 3 * 4) + align(8 * 5 * 4)


class TestQosPolicy:
    def test_defaults_and_validation(self):
        policy = QosPolicy()
        assert policy.priority == "standard"
        assert policy.max_queue is None and policy.deadline_ms is None
        with pytest.raises(ValueError):
            QosPolicy(priority="urgent")
        with pytest.raises(ValueError):
            QosPolicy(max_queue=0)
        with pytest.raises(ValueError):
            QosPolicy(deadline_ms=0.0)

    def test_parse_shorthand(self):
        assert QosPolicy.parse("interactive").priority == "interactive"
        policy = QosPolicy.parse("batch:64")
        assert (policy.priority, policy.max_queue) == ("batch", 64)
        policy = QosPolicy.parse("interactive:8:250")
        assert policy.max_queue == 8 and policy.deadline_ms == 250.0
        # Empty fields keep the defaults.
        policy = QosPolicy.parse("::100")
        assert policy.priority == "standard"
        assert policy.max_queue is None and policy.deadline_ms == 100.0
        with pytest.raises(ValueError):
            QosPolicy.parse("a:b:c:d")
        with pytest.raises(ValueError):
            QosPolicy.parse("vip:8")

    def test_dict_round_trip(self):
        policy = QosPolicy(priority="batch", max_queue=16, deadline_ms=50.0)
        assert QosPolicy.from_dict(policy.to_dict()).to_dict() \
            == policy.to_dict()

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "qos.json")
        assert load_qos_file(path) == {}
        policies = {"a": QosPolicy(priority="interactive", max_queue=8),
                    "b": QosPolicy(priority="batch", deadline_ms=100.0)}
        save_qos_file(path, policies)
        loaded = load_qos_file(path)
        assert sorted(loaded) == ["a", "b"]
        assert loaded["a"].to_dict() == policies["a"].to_dict()
        assert loaded["b"].to_dict() == policies["b"].to_dict()


class TestTokenBucket:
    def test_deterministic_refill(self):
        bucket = TokenBucket(rate=10.0, burst=5.0, now=0.0)
        assert all(bucket.take(1.0, now=0.0) for _ in range(5))
        assert not bucket.take(1.0, now=0.0)  # burst exhausted
        assert bucket.take(1.0, now=0.1)      # 1 token refilled
        assert not bucket.take(1.0, now=0.1)
        # Refill caps at burst no matter how long the idle gap.
        assert sum(bucket.take(1.0, now=100.0) for _ in range(10)) == 5

    def test_set_rate_clamps_tokens(self):
        bucket = TokenBucket(rate=10.0, burst=10.0, now=0.0)
        bucket.set_rate(1.0, burst=2.0)
        assert bucket.tokens == 2.0
        assert bucket.take(2.0, now=0.0) and not bucket.take(1.0, now=0.0)


class TestAdmissionController:
    def _breach(self, burn: float = 50.0, route: str | None = None) -> dict:
        report = {"breaching": True, "fast": {"burn_rate": burn},
                  "slow": {}, "max_burn_rate": 1.0}
        if route is not None:
            report["labels"] = {"route": route}
        return report

    def test_counters_and_offered_load_ema(self):
        qos = AdmissionController()
        for t in range(1, 6):
            qos.record_admitted("m", now=float(t))
        qos.record_rejected("m", now=6.0)
        cell = qos.counters("m")
        assert cell["admitted"] == 5 and cell["rejected"] == 1
        # Steady 1 req/s arrivals (admitted *and* rejected) → EMA ≈ 1.
        assert qos._arrival_ema["m"] == pytest.approx(1.0)

    def test_shed_class_ordering(self):
        qos = AdmissionController()
        qos.set_policy("m", QosPolicy())
        # Exactly-at-budget breach: fraction 0.375 → batch sheds at 0.75,
        # standard not at all, interactive never.
        qos.update_shedding([self._breach(burn=1.0)], now=0.0)
        state = qos.shedding()["m"]
        assert state["fraction"] == pytest.approx(0.375)
        assert not qos.should_shed("m", "interactive", now=0.0)
        assert not qos.should_shed("m", "standard", now=0.0)
        # Exhaust the batch class's token allowance at a frozen clock:
        # the bucket's burst admits a few, then every arrival sheds.
        results = [qos.should_shed("m", "batch", now=1.0) for _ in range(50)]
        assert results[0] is False  # the burst allowance admits one
        assert all(results[1:])     # then every frozen-clock arrival sheds
        assert qos.counters("m")["shed"] == 49

    def test_standard_sheds_only_after_batch_fully_shed(self):
        qos = AdmissionController()
        assert qos._class_fraction(0.4, "batch") == pytest.approx(0.8)
        assert qos._class_fraction(0.4, "standard") == 0.0
        assert qos._class_fraction(0.9, "batch") == 1.0
        assert qos._class_fraction(0.9, "standard") == pytest.approx(0.8)
        assert all(qos._class_fraction(f, "interactive") == 0.0
                   for f in (0.1, 0.5, 0.9))

    def test_escalation_and_ceiling(self):
        qos = AdmissionController()
        qos.set_policy("m", QosPolicy())
        qos.update_shedding([self._breach(burn=1.0)], now=0.0)
        assert qos.shedding()["m"]["fraction"] == pytest.approx(0.375)
        qos.update_shedding([self._breach(burn=50.0)], now=1.0)
        assert qos.shedding()["m"]["fraction"] == pytest.approx(0.9)

    def test_hysteresis_and_journal_events(self):
        events = []
        qos = AdmissionController(
            resolve_model=lambda key: key.split("@")[0],
            on_event=lambda kind, **fields: events.append((kind, fields)),
            recover_evals=3,
        )
        # Route-labeled report resolves `m@v2` to model `m`.
        qos.update_shedding([self._breach(route="m@v2")], now=0.0)
        assert "m" in qos.shedding()
        assert events[0][0] == "shed"
        assert events[0][1]["model"] == "m"
        assert events[0][1]["transition"] == "engaged"
        # One healthy round must not flap shedding off...
        qos.update_shedding([], now=1.0)
        qos.update_shedding([], now=2.0)
        assert qos.shedding()["m"]["healthy_streak"] == 2
        # ...and a fresh breach resets the streak.
        qos.update_shedding([self._breach(route="m@v2")], now=3.0)
        assert qos.shedding()["m"]["healthy_streak"] == 0
        for t in (4.0, 5.0, 6.0):
            qos.update_shedding([], now=t)
        assert qos.shedding() == {}
        assert events[-1][1]["transition"] == "disengaged"

    def test_unlabeled_breach_sheds_every_known_model(self):
        qos = AdmissionController()
        qos.set_policy("a", QosPolicy())
        qos.record_admitted("b", now=0.0)
        qos.update_shedding([self._breach()], now=0.0)
        assert sorted(qos.shedding()) == ["a", "b"]


class TestServerAdmission:
    def test_per_route_queue_bound(self, session, images):
        policy = QosPolicy(priority="standard", max_queue=8)
        with LocalizationServer(session, workers=1, max_batch=8,
                                max_delay_ms=200.0,
                                qos={DEFAULT_MODEL: policy}) as server:
            first = server.submit(images[:6])  # 6 ≤ 8: admitted, batching
            with pytest.raises(RouteOverloaded) as info:
                server.submit(images[:6])      # 6 + 6 > 8: rejected now
            assert info.value.model == DEFAULT_MODEL
            assert info.value.retry_after_s > 0
            assert not info.value.shed
            # The bound is on queued samples, not requests: two more
            # samples still fit (and complete the batch).
            second = server.submit(images[6:8])
            assert server.result(first, timeout=10.0).shape == (6, 5)
            assert server.result(second, timeout=10.0).shape == (2, 5)
            counters = server.stats()["admission"]["counters"][DEFAULT_MODEL]
            assert counters["admitted"] == 2 and counters["rejected"] == 1

    @needs_shm
    def test_deadline_expires_in_queue(self, session, images):
        with LocalizationServer(session, workers=1, max_batch=8,
                                max_delay_ms=5.0,
                                ring_bytes=ONE_BATCH_RING,
                                spill_wait_ms=400.0) as server:
            pid = server._shards[0].process.pid
            os.kill(pid, signal.SIGSTOP)
            try:
                # Batch A takes the only ring lease; batch B then stalls
                # the dispatcher in the ring's bounded backpressure wait,
                # so C's deadline lapses while it is still queued.
                a = server.submit(images[:8])
                time.sleep(0.05)
                b = server.submit(images[8:16])
                time.sleep(0.05)
                c = server.submit(images[:1], deadline_ms=100.0)
                with pytest.raises(DeadlineExpired):
                    server.result(c, timeout=5.0)
            finally:
                os.kill(pid, signal.SIGCONT)
            assert server.result(a, timeout=10.0).shape == (8, 5)
            assert server.result(b, timeout=10.0).shape == (8, 5)
            counters = server.stats()["admission"]["counters"][DEFAULT_MODEL]
            assert counters["expired"] >= 1

    @needs_shm
    def test_slo_shed_drops_batch_class_under_backlog(self, session, images):
        events = []
        ring = align(4 * 12 * 12 * 3 * 4) + align(4 * 5 * 4)
        policy = QosPolicy(priority="batch")
        with LocalizationServer(session, workers=1, max_batch=4,
                                max_delay_ms=1.0, ring_bytes=ring,
                                spill_wait_ms=400.0,
                                qos={DEFAULT_MODEL: policy}) as server:
            server.add_lifecycle_hook(
                lambda kind, fields: events.append((kind, fields)))
            server.qos.update_shedding([
                {"breaching": True, "fast": {"burn_rate": 50.0},
                 "slow": {}, "max_burn_rate": 1.0},
            ])
            assert server.stats()["admission"]["shedding"][DEFAULT_MODEL][
                "fraction"] == pytest.approx(0.9)
            pid = server._shards[0].process.pid
            os.kill(pid, signal.SIGSTOP)
            shed_error = None
            admitted = []
            try:
                # The work-conserving gate: shedding only applies once the
                # route has a real backlog (> max_batch queued samples),
                # which the stalled dispatcher guarantees here.
                for _ in range(200):
                    try:
                        admitted.append(server.submit(images[:1]))
                    except RouteOverloaded as error:
                        shed_error = error
                        break
            finally:
                os.kill(pid, signal.SIGCONT)
            assert shed_error is not None and shed_error.shed
            for request_id in admitted:
                server.result(request_id, timeout=15.0)
            counters = server.stats()["admission"]["counters"][DEFAULT_MODEL]
            assert counters["shed"] >= 1
            # Recovery: three healthy evaluations disengage (hysteresis).
            for _ in range(3):
                server.qos.update_shedding([])
            assert server.stats()["admission"]["shedding"] == {}
            shed_events = [f for k, f in events if k == "shed"]
            transitions = [f["transition"] for f in shed_events]
            assert "engaged" in transitions and "disengaged" in transitions

    def test_server_wide_bound_holds_through_shard_kill(self, session,
                                                        images):
        """Satellite: the global queue bound holds during restart windows
        — floods get structured rejections, every admitted request still
        completes, and the pool comes back."""
        with LocalizationServer(session, workers=2, max_batch=8,
                                max_delay_ms=1.0, max_queue=32) as server:
            admitted, rejected = [], [0]
            peak_pending = [0]
            stop = time.perf_counter() + 0.8
            lock = threading.Lock()

            def flood():
                while time.perf_counter() < stop:
                    try:
                        request_id = server.submit(images[:1])
                        with lock:
                            admitted.append(request_id)
                    except RouteOverloaded:
                        with lock:
                            rejected[0] += 1
                    depth = len(server._pending)
                    with lock:
                        peak_pending[0] = max(peak_pending[0], depth)

            threads = [threading.Thread(target=flood) for _ in range(3)]
            for thread in threads:
                thread.start()
            time.sleep(0.3)
            os.kill(server._shards[0].process.pid, signal.SIGKILL)
            for thread in threads:
                thread.join()
            assert rejected[0] > 0, "flood never hit the server-wide bound"
            assert peak_pending[0] <= 32
            for request_id in admitted:
                assert server.result(request_id, timeout=30.0).shape == (1, 5)
            # The pool recovered: a fresh submit round-trips.
            request_id = server.submit(images[:2])
            assert server.result(request_id, timeout=10.0).shape == (2, 5)
            counters = server.stats()["admission"]["counters"][DEFAULT_MODEL]
            assert counters["rejected"] == rejected[0]
            assert counters["admitted"] >= len(admitted)


class TestAutoscaler:
    def _two_tenant_server(self, session):
        server = FleetServer(workers=1, max_batch=8, max_delay_ms=1.0)
        server.start()
        snapshot = session.snapshot()
        server.deploy("tenant_a", version=1, snapshot=snapshot)
        server.deploy("tenant_b", version=1, snapshot=snapshot)
        return server

    def _inject_queue_depth(self, server, depths: dict) -> None:
        with server._cond:
            for model, depth in depths.items():
                if depth:
                    server._pending_by_model[model] = depth
                else:
                    server._pending_by_model.pop(model, None)

    def test_rebalance_moves_and_returns_share(self, session):
        events = []
        server = self._two_tenant_server(session)
        try:
            server.add_lifecycle_hook(
                lambda kind, fields: events.append((kind, fields)))
            scaler = Autoscaler(server, min_share=0.1, step=0.5,
                                deadband=0.02)
            self._inject_queue_depth(server, {"tenant_a": 200})
            shares = scaler.rebalance()
            assert shares is not None and shares["tenant_a"] > 0.6
            assert shares["tenant_b"] >= 0.1  # the min-share floor holds
            assert sum(shares.values()) == pytest.approx(1.0)
            # Load gone: the share decays back toward an even split.
            self._inject_queue_depth(server, {"tenant_a": 0})
            for _ in range(8):
                scaler.rebalance()
            assert abs(server.route_shares()["tenant_a"] - 0.5) < 0.1
            rebalances = [f for k, f in events if k == "rebalance"]
            assert len(rebalances) >= 2
            assert "shares" in rebalances[0] and "loads" in rebalances[0]
            assert scaler.rebalances == len(rebalances)
        finally:
            self._inject_queue_depth(server, {"tenant_a": 0, "tenant_b": 0})
            server.close()

    def test_served_demand_moves_share(self, session, images):
        """Samples queued since the last round count even once served:
        a work-conserving batcher leaves little backlog to sample."""
        server = self._two_tenant_server(session)
        try:
            scaler = Autoscaler(server, min_share=0.1, step=0.5,
                                deadband=0.02)
            assert scaler.rebalance() is None  # no traffic yet
            for _ in range(4):
                request_id = server.submit(images[:8], model="tenant_a")
                server.result(request_id, timeout=30.0)
            shares = scaler.rebalance()
            assert shares is not None and shares["tenant_a"] > 0.6
            # No new demand: the share decays back toward an even split.
            for _ in range(8):
                scaler.rebalance()
            assert abs(server.route_shares()["tenant_a"] - 0.5) < 0.1
        finally:
            server.close()

    def test_deadband_suppresses_flapping(self, session):
        server = self._two_tenant_server(session)
        try:
            server.set_route_shares({"tenant_a": 0.5, "tenant_b": 0.5})
            scaler = Autoscaler(server, deadband=0.02)
            # Balanced load → desired == current → inside the deadband.
            self._inject_queue_depth(server, {"tenant_a": 50,
                                              "tenant_b": 50})
            assert scaler.rebalance() is None
            assert scaler.rebalances == 0
        finally:
            self._inject_queue_depth(server, {"tenant_a": 0, "tenant_b": 0})
            server.close()

    def test_single_route_owns_whole_pool(self, session):
        with LocalizationServer(session, workers=1, max_batch=8,
                                max_delay_ms=1.0) as server:
            assert Autoscaler(server).rebalance() is None


class TestFleetQos:
    def test_policy_survives_swap_and_persists(self, session, tmp_path):
        qos_path = str(tmp_path / "qos.json")
        server = FleetServer(workers=1, max_batch=8, max_delay_ms=1.0,
                             qos_path=qos_path)
        server.start()
        try:
            snapshot = session.snapshot()
            server.deploy("m", version=1, snapshot=snapshot)
            server.set_qos_policy("m", "interactive:64:250")
            other = _tiny_session(seed=1).snapshot()
            server.swap("m", version=2, snapshot=other)
            policy = server.qos.get_policy("m")
            assert policy.priority == "interactive"
            assert policy.max_queue == 64 and policy.deadline_ms == 250.0
            assert server.qos_policies()["m"]["max_queue"] == 64
        finally:
            server.close()
        # The policy file a restarted fleet would load it back from.
        with open(qos_path) as handle:
            spec = json.load(handle)
        assert spec["m"]["priority"] == "interactive"
        restarted = load_qos_file(qos_path)
        assert restarted["m"].deadline_ms == 250.0


class TestGatewayQos:
    @pytest.fixture()
    def stack(self, session, stall_worker):
        """A gateway over a one-worker server whose worker is stalled, so
        admitted requests stay queued until the test calls ``resume()``."""
        policy = QosPolicy(priority="standard", max_queue=8)
        with LocalizationServer(session, workers=1, max_batch=64,
                                max_delay_ms=60_000.0,
                                qos={DEFAULT_MODEL: policy}) as server:
            gateway = GatewayServer(server, max_connections=16).start()
            try:
                with stall_worker(server) as resume:
                    yield gateway, resume
            finally:
                gateway.close()

    def _fingerprint(self, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.uniform(-90.0, -30.0, size=12 * 12 * 3) \
            .astype(np.float32)

    def test_overloaded_wire_code_and_retry_after(self, stack):
        gateway, resume = stack
        with GatewayClient("127.0.0.1", gateway.port) as client:
            ids = [client.submit(self._fingerprint(i)) for i in range(8)]
            overflow = client.submit(self._fingerprint(99))
            response = client.result(overflow, timeout=5.0)
            assert not response.get("ok")
            error = response["error"]
            assert error["code"] == "overloaded"
            assert error["retry_after_s"] > 0
            resume()
            for request_id in ids:  # the admitted ones all complete
                assert client.result(request_id, timeout=10.0)["ok"]

    def test_http_503_carries_retry_after_header(self, stack):
        import socket as socketlib

        gateway, resume = stack
        with GatewayClient("127.0.0.1", gateway.port) as filler:
            ids = [filler.submit(self._fingerprint(i)) for i in range(8)]
            # The HTTP request arrives on its own connection, so nothing
            # orders it after the filler's pipelined frames: a probe
            # rejection on the filler's connection proves the route is
            # full before the HTTP request is sent.
            probe = filler.result(filler.submit(self._fingerprint(98)),
                                  timeout=5.0)
            assert probe["error"]["code"] == "overloaded"
            body = json.dumps(
                {"fingerprint": self._fingerprint(5).tolist()}
            ).encode()
            request = (
                f"POST /localize HTTP/1.1\r\nHost: x\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode() + body
            with socketlib.create_connection(
                    ("127.0.0.1", gateway.port), timeout=5.0) as sock:
                sock.sendall(request)
                sock.settimeout(5.0)
                raw = b""
                while b"\r\n\r\n" not in raw:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    raw += chunk
            head = raw.split(b"\r\n\r\n", 1)[0].decode()
            assert head.startswith("HTTP/1.1 503")
            assert "retry-after:" in head.lower()
            resume()
            for request_id in ids:
                assert filler.result(request_id, timeout=10.0)["ok"]

    def test_client_retry_honors_hint_then_succeeds(self, stack):
        gateway, resume = stack
        with GatewayClient("127.0.0.1", gateway.port) as filler, \
                GatewayClient("127.0.0.1", gateway.port, max_retries=4,
                              backoff_base_s=0.01) as client:
            ids = [filler.submit(self._fingerprint(i)) for i in range(8)]
            # Confirm the route is actually full before the retrying call
            # (the filler's frames are pipelined; a probe rejection proves
            # the gateway has drained them all into the queue).
            probe = filler.result(filler.submit(self._fingerprint(98)),
                                  timeout=5.0)
            assert probe["error"]["code"] == "overloaded"
            # Drain the backlog only once the first attempt has been
            # refused: the retry then finds room after its backoff.
            backoff = client._backoff_s

            def resume_then_backoff(attempt, hint):
                resume()
                return backoff(attempt, hint)

            client._backoff_s = resume_then_backoff
            response = client.localize(self._fingerprint(42), timeout=10.0)
            assert response["ok"] and client.retries >= 1
            for request_id in ids:
                assert filler.result(request_id, timeout=10.0)["ok"]

    def test_retry_budget_exhausts_into_structured_error(self, session,
                                                         stall_worker):
        # A one-slot route that never drains within the retry budget:
        # the final overloaded error surfaces with its hint intact.
        policy = QosPolicy(priority="standard", max_queue=1)
        with LocalizationServer(session, workers=1, max_batch=64,
                                max_delay_ms=60_000.0,
                                qos={DEFAULT_MODEL: policy}) as server:
            gateway = GatewayServer(server, max_connections=16).start()
            try:
                with GatewayClient("127.0.0.1", gateway.port) as filler, \
                        GatewayClient("127.0.0.1", gateway.port,
                                      max_retries=2,
                                      backoff_base_s=0.01) as client, \
                        stall_worker(server) as resume:
                    held = filler.submit(self._fingerprint(0))
                    # The slot must be taken before the client asks: a
                    # probe rejection on the filler's connection proves it.
                    probe = filler.result(
                        filler.submit(self._fingerprint(98)), timeout=5.0)
                    assert probe["error"]["code"] == "overloaded"
                    with pytest.raises(GatewayError) as info:
                        client.localize(self._fingerprint(1), timeout=10.0)
                    assert info.value.code == "overloaded"
                    assert info.value.retry_after_s is not None
                    assert client.retries == 2
                    resume()
                    assert filler.result(held, timeout=10.0)["ok"]
            finally:
                gateway.close()

    def test_backoff_schedule_bounds(self):
        client = GatewayClient.__new__(GatewayClient)  # no socket needed
        client.backoff_base_s = 0.05
        client.backoff_cap_s = 2.0
        client.backoff_jitter = 0.25
        for attempt in (1, 2, 3):
            delay = client._backoff_s(attempt, None)
            base = 0.05 * 2.0 ** (attempt - 1)
            assert base * 0.75 <= delay <= base * 1.25
        # The cap bounds growth; the server hint floors the sleep.
        assert client._backoff_s(20, None) <= 2.0 * 1.25
        assert client._backoff_s(1, 1.5) >= 1.5
