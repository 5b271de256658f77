"""The serving stack under test, built and driven only through its public API.

The chain is the deployment path of the repository:

    repro.data survey -> DataAugmentationModule.process -> quantize_session
    -> ModelRegistry.publish -> FleetServer.deploy / LocalizationServer.submit
    -> GatewayServer (framed JSON, protocol.encode_frame)

:func:`load_bundle` trains the one VITAL model the benchmark serves and
surveys the readings it sends.  Both are fixed (model seed, survey seeds)
and cached under the checkout, so training happens once per checkout and
never inside a timed region.  :func:`deploy` performs one timed set-up,
from trained weights to the first correct answer.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import time

import numpy as np

from repro.data import (
    ALL_DEVICES,
    BASE_DEVICES,
    SurveyConfig,
    collect_fingerprints,
    make_building_1,
)
from repro.fleet import FleetServer, ModelRegistry
from repro.infer import InferenceSession, restore_session
from repro.quant import quantize_session
from repro.serve import GatewayClient, GatewayServer, LocalizationServer
from repro.vit import VitalConfig, VitalLocalizer

#: Geometry of ``BENCH_inference.json``: 24x24x3 images, 4x4 patches.
IMAGE_SIZE = 24
N_APS = 24
EPOCHS = 20
MODEL_SEED = 0
TRAIN_SURVEY = SurveyConfig(n_visits=3, seed=0)
#: Independent of the training survey, so every served reading is unseen.
#: 9 devices x 63 reference points x 14 visits = 7938 readings, enough for
#: the busiest fresh workload (300 req/s for 24 s) without a repeat.
SERVE_SURVEY = SurveyConfig(n_visits=14, seed=1)
#: ``repro quantize`` defaults: 64 calibration fingerprints, per-channel
#: int8 codes, int8-resident weights, ``matmul=auto``.
CALIBRATION_SAMPLES = 64
QUANT = {"scheme": "per_channel", "mode": "int8", "matmul": "auto"}
WORKERS = 2
MAX_BATCH = 32
MODEL_ID = "vital"
#: Large enough to keep every traced request of one run.
TRACE_BUFFER = 1 << 14
BUNDLE_VERSION = 2

#: Answer tolerance against the offline reference.  Batching changes the
#: float32 summation order by a few 1e-6 on these logits; a wrong answer
#: (another reading's logits) differs by whole units.
ATOL = 1e-4
RTOL = 1e-4


def load_bundle(cache_dir: str) -> dict:
    """The trained model, its fitted DAM and the serving survey; built on
    first use and cached in ``cache_dir`` (written atomically)."""
    path = os.path.join(cache_dir, f"bundle-v{BUNDLE_VERSION}.pkl")
    if os.path.exists(path):
        with open(path, "rb") as handle:
            return pickle.load(handle)
    building = make_building_1(n_aps=N_APS)
    train = collect_fingerprints(building, BASE_DEVICES, TRAIN_SURVEY)
    localizer = VitalLocalizer(VitalConfig.fast(IMAGE_SIZE, epochs=EPOCHS),
                               seed=MODEL_SEED).fit(train)
    served = collect_fingerprints(building, ALL_DEVICES, SERVE_SURVEY)
    bundle = {
        "model": localizer.model,
        "dam": localizer.dam,
        "calibration_features": train.features[:CALIBRATION_SAMPLES],
        "features": served.features,
        "labels": served.labels,
        "devices": served.devices,
        "rp_locations": served.rp_locations,
    }
    os.makedirs(cache_dir, exist_ok=True)
    partial = f"{path}.{os.getpid()}.tmp"
    with open(partial, "wb") as handle:
        pickle.dump(bundle, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(partial, path)
    return bundle


def dam_images(dam, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """DAM-process each reading on its own, as a phone would before
    sending it; returns the float32 images and per-reading seconds."""
    images = np.empty((len(features), IMAGE_SIZE, IMAGE_SIZE, 3), np.float32)
    seconds = np.empty(len(features))
    for i, reading in enumerate(features):
        t0 = time.perf_counter()
        images[i] = dam.process(reading[None], training=False, as_image=True)[0]
        seconds[i] = time.perf_counter() - t0
    return images, seconds


def build_snapshot(bundle: dict, precision: str, calibration_images) -> dict:
    """The snapshot a deployment serves, built exactly as :func:`deploy`
    builds it (so the offline reference can be computed untimed)."""
    session = InferenceSession(bundle["model"], max_batch=MAX_BATCH)
    if precision == "float32":
        return session.snapshot()
    return quantize_session(session, calibration_images=calibration_images,
                            **QUANT).snapshot()


def digest(snapshot: dict) -> str:
    return hashlib.sha256(
        pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)).hexdigest()


def reference_logits(snapshot: dict, images: np.ndarray) -> np.ndarray:
    """The offline answer: ``restore_session(snapshot).predict``."""
    return restore_session(snapshot).predict_many(images)


def answer_ok(served, reference: np.ndarray) -> bool:
    """An answer is correct when it matches the reference logits within
    the tolerance and names the reference's top class (a class tied with
    it within ``ATOL`` also counts)."""
    served = np.asarray(served, dtype=np.float32).reshape(-1)
    if served.shape != reference.shape or not np.all(np.isfinite(served)):
        return False
    if not np.allclose(served, reference, rtol=RTOL, atol=ATOL):
        return False
    return bool(reference[int(np.argmax(served))] >= reference.max() - ATOL)


def oracle_self_check(reference: np.ndarray) -> bool:
    """The oracle passes a correct answer and flags a mismatched one (the
    logits of a reading with another top class) and a perturbed one."""
    top = reference.argmax(axis=1)
    others = np.flatnonzero(top != top[0])
    if not len(others):
        return False
    return (answer_ok(reference[0].copy(), reference[0])
            and not answer_ok(reference[others[0]], reference[0])
            and not answer_ok(reference[0] + 10 * ATOL, reference[0]))


class Deployment:
    """One running stack: server or fleet, optionally behind a gateway."""

    def __init__(self, server, model, gateway, snapshot, registry_dir, steps):
        self.server = server
        self.model = model
        self.gateway = gateway
        self.snapshot = snapshot
        self.registry_dir = registry_dir
        #: Set-up step durations in seconds, plus ``total_s``.
        self.steps = steps

    def close(self) -> None:
        try:
            if self.gateway is not None:
                self.gateway.close()
        finally:
            self.server.close()
            if self.registry_dir is not None:
                shutil.rmtree(self.registry_dir, ignore_errors=True)


def deploy(bundle: dict, precision: str, gateway: bool, calibration_images,
           warmup_images, warmup_reference, registry_dir: str,
           traced: bool = False, timeout_s: float = 1.0) -> Deployment:
    """Set up one stack and time it from trained weights to the first
    correct answer (``steps["total_s"]``).

    ``float32`` compiles a session into ``LocalizationServer``; ``int8``
    quantizes it, publishes it to a fresh registry, starts a
    ``FleetServer`` and deploys it, then (with ``gateway``) starts a
    ``GatewayServer`` at its defaults.  The first answer is asked for with
    the warm-up readings in turn until one comes back correct.
    """
    steps: dict[str, float] = {}
    started = clock = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        steps[name] = now - clock
        clock = now

    trace = ({"trace_sample": 1.0, "trace_buffer": TRACE_BUFFER}
             if traced else {})
    server = front = None
    try:
        session = InferenceSession(bundle["model"], max_batch=MAX_BATCH)
        lap("compile_s")
        if precision == "float32":
            snapshot = session.snapshot()
            model = None
            server = LocalizationServer(session, workers=WORKERS,
                                        profile=traced, **trace)
            server.start()
            lap("start_s")
            registry_dir = None
        else:
            snapshot = quantize_session(
                session, calibration_images=calibration_images,
                **QUANT).snapshot()
            lap("quantize_s")
            registry = ModelRegistry(registry_dir)
            registry.publish(MODEL_ID, snapshot)
            lap("publish_s")
            server = FleetServer(registry, workers=WORKERS, profile=traced,
                                 **trace)
            server.start()
            lap("start_s")
            server.deploy(MODEL_ID)
            lap("deploy_s")
            model = MODEL_ID
        if gateway:
            front = GatewayServer(server, **trace).start()
            lap("gateway_start_s")
        if not _first_correct_answer(server, model, front, warmup_images,
                                     warmup_reference, timeout_s):
            raise RuntimeError("no warm-up request was answered correctly")
        lap("first_answer_s")
    except BaseException:
        if front is not None:
            front.close()
        if server is not None:
            server.close()
        if registry_dir is not None:
            shutil.rmtree(registry_dir, ignore_errors=True)
        raise
    steps["total_s"] = time.perf_counter() - started
    return Deployment(server, model, front, snapshot, registry_dir, steps)


def _first_correct_answer(server, model, front, images, reference,
                          timeout_s) -> bool:
    if front is None:
        for image, expected in zip(images, reference):
            logits = server.result(server.submit(image, model=model),
                                   timeout=timeout_s)
            if answer_ok(logits, expected):
                return True
        return False
    with GatewayClient(*front.address, timeout=timeout_s) as client:
        for image, expected in zip(images, reference):
            reply = client.localize(image, model=model, timeout=timeout_s)
            if answer_ok(reply["logits"], expected):
                return True
    return False
