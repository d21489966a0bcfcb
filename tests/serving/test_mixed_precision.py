"""Precision-tiered serving (ISSUE 5): float32 sessions against the
float64 reference, and a mixed-precision registry routed by one
PredictionService under concurrent traffic."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import QPPNet, QPPNetConfig
from repro.evaluation import precision_agreement_gap
from repro.featurize import Featurizer
from repro.serving import InferenceSession, ModelRegistry, PredictionService
from repro.workload import Workbench

#: Serving acceptance bar from the issue: float32 predictions agree with
#: the float64 reference to <= 1e-4 relative, under the shared
#: scale-floored metric (see
#: :func:`repro.evaluation.metrics.precision_agreement_gap` for why the
#: denominator floors at 1% of the latency scale) — the benchmark
#: enforces the same definition.
REL_TOL = 1e-4


@pytest.fixture(scope="module")
def corpus():
    wb = Workbench("tpch", scale_factor=0.2, seed=0)
    return wb.generate(96, rng=np.random.default_rng(7))


@pytest.fixture(scope="module")
def featurizer(corpus):
    return Featurizer().fit([s.plan for s in corpus])


def make_model(featurizer, dtype):
    config = QPPNetConfig(hidden_layers=2, neurons=16, data_size=4, dtype=dtype, seed=3)
    return QPPNet(featurizer, config)


@pytest.fixture(scope="module")
def model64(featurizer):
    return make_model(featurizer, "float64")


@pytest.fixture(scope="module")
def model32(featurizer):
    return make_model(featurizer, "float32")


class TestFloat32Serving:
    def test_predict_batch_agrees_with_float64(self, model64, model32, corpus):
        plans = [s.plan for s in corpus]
        scale = model64.featurizer.latency_scale_ms
        reference = InferenceSession(model64).predict_batch(plans)
        got = InferenceSession(model32).predict_batch(plans)
        assert precision_agreement_gap(got, reference, scale) <= REL_TOL

    def test_predict_operators_batch_agrees(self, model64, model32, corpus):
        plans = [s.plan for s in corpus[:24]]
        scale = model64.featurizer.latency_scale_ms
        reference = InferenceSession(model64).predict_operators_batch(plans)
        got = InferenceSession(model32).predict_operators_batch(plans)
        for ops32, ops64 in zip(got, reference):
            assert precision_agreement_gap(np.asarray(ops32), np.asarray(ops64), scale) <= REL_TOL

    def test_single_plan_paths_agree(self, model64, model32, corpus):
        s64, s32 = InferenceSession(model64), InferenceSession(model32)
        scale = model64.featurizer.latency_scale_ms
        for sample in corpus[:16]:
            a, b = s32.predict(sample.plan), s64.predict(sample.plan)
            assert precision_agreement_gap([a], [b], scale) <= REL_TOL

    def test_float32_session_pools_are_float32(self, model32, corpus):
        """Hot-path purity on the serving side: the per-type feature
        matrices and the level plan's outputs are float32 throughout."""
        session = InferenceSession(model32)
        assert session.dtype == np.float32
        plans = [s.plan for s in corpus[:32]]
        session.predict_batch(plans)
        assert session._pool._buffers, "featurization must have pooled buffers"
        for buffer in session._pool._buffers.values():
            assert buffer.dtype == np.float32
        _, level_plan, features = session._prepare(plans)
        assert level_plan.dtype == np.float32
        assert all(f.dtype == np.float32 for f in features.values())
        assert level_plan.forward_inference(features).out.dtype == np.float32

    def test_api_output_dtype_unchanged(self, model32, corpus):
        """predict_batch keeps returning float64 ms values — precision is
        an internal compute choice, not an API change."""
        out = InferenceSession(model32).predict_batch([s.plan for s in corpus[:4]])
        assert out.dtype == np.float64


class TestMixedPrecisionService:
    def test_service_routes_both_tiers_concurrently(self, model64, model32, corpus):
        """One PredictionService, a registry holding a float64 and a
        float32 model: concurrent submitters route to both; float64
        predictions stay pinned to predict_batch at <= 1e-9 and float32
        agrees with the float64 reference at <= 1e-4 relative."""
        plans = [s.plan for s in corpus]
        scale = model64.featurizer.latency_scale_ms
        reference64 = InferenceSession(model64).predict_batch(plans)

        registry = ModelRegistry()
        registry.register("ref-f64", model64)
        registry.register("prod-f32", model32)

        with PredictionService(
            registry,
            default_model="prod-f32",
            max_batch_size=64,
            max_wait_ms=2.0,
        ) as service:

            def submit_all(name):
                handles = [service.submit(p, model=name) for p in plans]
                return np.array([h.result(timeout=60) for h in handles])

            with ThreadPoolExecutor(2) as pool:
                f32_future = pool.submit(submit_all, "prod-f32")
                f64_future = pool.submit(submit_all, "ref-f64")
                got32, got64 = f32_future.result(), f64_future.result()

        assert np.max(np.abs(got64 - reference64)) <= 1e-9
        assert precision_agreement_gap(got32, reference64, scale) <= REL_TOL
        # And the two tiers really are different computations.
        assert np.max(np.abs(got32 - got64)) > 0.0
