"""Tests for the logical query specification layer."""

import math

import pytest

from repro.queryspec import AggregateSpec, JoinEdge, Predicate, QuerySpec, TableRef


class TestPredicate:
    def test_valid(self):
        assert Predicate("c", "=", 0.5).selectivity == 0.5

    def test_selectivity_bounds(self):
        with pytest.raises(ValueError):
            Predicate("c", "=", 0.0)
        with pytest.raises(ValueError):
            Predicate("c", "=", 1.5)

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            Predicate("c", "like", 0.5)


class TestTableRef:
    def test_no_predicates_fully_selective(self):
        assert TableRef("t", "t").true_selectivity() == 1.0

    def test_independent_predicates_multiply(self):
        ref = TableRef("t", "t", (Predicate("a", "=", 0.2), Predicate("b", "=", 0.5)))
        assert ref.true_selectivity() == pytest.approx(0.1)

    def test_fully_correlated_takes_minimum(self):
        ref = TableRef(
            "t", "t",
            (Predicate("a", "=", 0.2), Predicate("b", "=", 0.5)),
            correlation=1.0,
        )
        assert ref.true_selectivity() == pytest.approx(0.2)

    def test_partial_correlation_interpolates_in_log_space(self):
        preds = (Predicate("a", "=", 0.2), Predicate("b", "=", 0.5))
        half = TableRef("t", "t", preds, correlation=0.5).true_selectivity()
        assert half == pytest.approx(math.exp((math.log(0.1) + math.log(0.2)) / 2))

    def test_correlation_bounds(self):
        with pytest.raises(ValueError):
            TableRef("t", "t", (), correlation=1.5)


class TestJoinEdge:
    def test_valid(self):
        e = JoinEdge("a", "x", "b", "y", fk_side="a", skew=2.0)
        assert e.touches("a") and e.touches("b")
        assert e.other("a") == "b"
        assert e.other("b") == "a"

    def test_other_unknown_alias(self):
        with pytest.raises(KeyError):
            JoinEdge("a", "x", "b", "y").other("c")

    def test_validation(self):
        with pytest.raises(ValueError):
            JoinEdge("a", "x", "b", "y", join_type="cross")
        with pytest.raises(ValueError):
            JoinEdge("a", "x", "b", "y", fk_side="z")
        with pytest.raises(ValueError):
            JoinEdge("a", "x", "b", "y", skew=0.0)


class TestAggregateSpec:
    def test_plain(self):
        spec = AggregateSpec(("sum",))
        assert not spec.is_grouped

    def test_grouped(self):
        assert AggregateSpec(("sum",), ("a.c",)).is_grouped

    def test_validation(self):
        with pytest.raises(ValueError):
            AggregateSpec(("median",))
        with pytest.raises(ValueError):
            AggregateSpec(("sum",), (), groups_fraction=0.0)


class TestQuerySpec:
    def test_duplicate_aliases_rejected(self):
        with pytest.raises(ValueError):
            QuerySpec("t", "tpch", (TableRef("a", "x"), TableRef("b", "x")))

    def test_join_unknown_alias_rejected(self):
        with pytest.raises(ValueError):
            QuerySpec(
                "t", "tpch",
                (TableRef("a", "a"), TableRef("b", "b")),
                joins=(JoinEdge("a", "x", "zz", "y"),),
            )

    def test_underconnected_join_graph_rejected(self):
        with pytest.raises(ValueError):
            QuerySpec("t", "tpch", (TableRef("a", "a"), TableRef("b", "b")))

    def test_limit_positive(self):
        with pytest.raises(ValueError):
            QuerySpec("t", "tpch", (TableRef("a", "a"),), limit=0)

    def test_table_ref_lookup(self):
        spec = QuerySpec("t", "tpch", (TableRef("a", "a"),))
        assert spec.table_ref("a").table == "a"
        with pytest.raises(KeyError):
            spec.table_ref("b")
