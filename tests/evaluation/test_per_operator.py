"""Tests for the per-operator accuracy drill-down."""

import numpy as np
import pytest

from repro.core import QPPNet, QPPNetConfig, Trainer
from repro.evaluation import operator_level_accuracy
from repro.featurize import Featurizer
from repro.plans import LogicalType
from repro.workload import Workbench


@pytest.fixture(scope="module")
def model_and_corpus():
    corpus = Workbench("tpch", seed=0).generate(30, rng=np.random.default_rng(4))
    featurizer = Featurizer().fit([s.plan for s in corpus])
    config = QPPNetConfig(hidden_layers=1, neurons=12, data_size=4, epochs=5, batch_size=16)
    model = QPPNet(featurizer, config)
    Trainer(model, config).fit(corpus)
    return model, corpus


class TestOperatorLevelAccuracy:
    def test_covers_present_types(self, model_and_corpus):
        model, corpus = model_and_corpus
        results = operator_level_accuracy(model, corpus)
        present = {n.logical_type for s in corpus for n in s.plan.preorder()}
        assert {r.logical_type for r in results} == present

    def test_instance_counts_match(self, model_and_corpus):
        model, corpus = model_and_corpus
        results = operator_level_accuracy(model, corpus)
        total = sum(r.n_instances for r in results)
        assert total == sum(s.plan.node_count() for s in corpus)

    def test_rows_render(self, model_and_corpus):
        model, corpus = model_and_corpus
        for r in operator_level_accuracy(model, corpus):
            row = r.row()
            assert row["instances"] > 0
            assert row["mae_s"] >= 0

    def test_requires_analyzed_plans(self, model_and_corpus):
        model, corpus = model_and_corpus
        stripped = corpus[0].plan.clone()
        for node in stripped.preorder():
            node.actual_total_ms = None
        from repro.workload.generator import PlanSample

        bad = PlanSample(stripped, 1.0, "x", "tpch")
        with pytest.raises(ValueError):
            operator_level_accuracy(model, [bad])

    def test_batched_mae_matches_per_plan_reference(self, model_and_corpus):
        """The batched scoring equals scoring every plan through the
        taped per-plan ``predict_operators``."""
        model, corpus = model_and_corpus
        errors: dict = {}
        for sample in corpus:
            preds = model.predict_operators(sample.plan)
            for node, pred in zip(sample.plan.preorder(), preds):
                errors.setdefault(node.logical_type, []).append(
                    abs(node.actual_total_ms - pred)
                )
        results = operator_level_accuracy(model, corpus)
        assert {r.logical_type for r in results} == set(errors)
        for r in results:
            assert r.mae_ms == pytest.approx(np.mean(errors[r.logical_type]), rel=1e-9)

    def test_scan_unit_present(self, model_and_corpus):
        model, corpus = model_and_corpus
        results = {r.logical_type: r for r in operator_level_accuracy(model, corpus)}
        assert LogicalType.SCAN in results
