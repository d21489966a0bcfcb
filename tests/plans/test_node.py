"""Tests for plan trees: traversal, signatures, serialization."""

import pytest

from repro.plans import (
    LogicalType,
    PhysicalOp,
    PlanNode,
    arity_of,
    logical_type_of,
    operator_instances,
)


def scan(rel="t"):
    return PlanNode(PhysicalOp.SEQ_SCAN, {"Relation Name": rel})


def join_plan():
    # HashJoin(scan(a), Hash(scan(b)))
    return PlanNode(
        PhysicalOp.HASH_JOIN,
        {"Join Type": "inner"},
        [scan("a"), PlanNode(PhysicalOp.HASH, {}, [scan("b")])],
    )


class TestOperatorTaxonomy:
    def test_all_physical_ops_mapped(self):
        for op in PhysicalOp:
            assert logical_type_of(op) in LogicalType

    def test_scan_variants_share_unit(self):
        assert logical_type_of(PhysicalOp.SEQ_SCAN) == logical_type_of(PhysicalOp.INDEX_SCAN)

    def test_join_variants_share_unit(self):
        js = {logical_type_of(o) for o in (PhysicalOp.HASH_JOIN, PhysicalOp.MERGE_JOIN, PhysicalOp.NESTED_LOOP)}
        assert js == {LogicalType.JOIN}

    def test_arities(self):
        assert arity_of(LogicalType.SCAN) == 0
        assert arity_of(LogicalType.JOIN) == 2
        assert arity_of(LogicalType.SORT) == 1


class TestTraversal:
    def test_preorder_root_first(self):
        plan = join_plan()
        order = [n.op for n in plan.preorder()]
        assert order[0] == PhysicalOp.HASH_JOIN
        assert len(order) == 4

    def test_postorder_root_last(self):
        plan = join_plan()
        order = [n.op for n in plan.postorder()]
        assert order[-1] == PhysicalOp.HASH_JOIN

    def test_postorder_children_before_parent(self):
        plan = join_plan()
        seen = []
        for node in plan.postorder():
            for child in node.children:
                assert id(child) in seen
            seen.append(id(node))

    def test_node_count_and_depth(self):
        plan = join_plan()
        assert plan.node_count() == 4
        assert plan.depth() == 3

    def test_leaves(self):
        assert len(list(join_plan().leaves())) == 2

    def test_operator_instances(self):
        assert len(operator_instances(join_plan())) == 4


class TestSignature:
    def test_same_structure_same_signature(self):
        assert join_plan().structure_signature() == join_plan().structure_signature()

    def test_physical_variant_same_logical_signature(self):
        a = join_plan()
        b = join_plan()
        b.op = PhysicalOp.MERGE_JOIN  # same logical type
        assert a.structure_signature() == b.structure_signature()

    def test_different_structure_different_signature(self):
        deeper = PlanNode(PhysicalOp.SORT, {}, [join_plan()])
        assert deeper.structure_signature() != join_plan().structure_signature()

    def test_child_order_matters(self):
        left = PlanNode(PhysicalOp.HASH_JOIN, {}, [scan(), PlanNode(PhysicalOp.HASH, {}, [scan()])])
        right = PlanNode(PhysicalOp.HASH_JOIN, {}, [PlanNode(PhysicalOp.HASH, {}, [scan()]), scan()])
        assert left.structure_signature() != right.structure_signature()


class TestCloneAndSerialize:
    def test_clone_is_deep(self):
        plan = join_plan()
        copy = plan.clone()
        copy.children[0].props["Relation Name"] = "changed"
        assert plan.children[0].props["Relation Name"] == "a"

    def test_clone_preserves_actuals(self):
        plan = join_plan()
        plan.actual_total_ms = 42.0
        plan.actual_rows = 10.0
        copy = plan.clone()
        assert copy.actual_total_ms == 42.0

    def test_dict_roundtrip(self):
        plan = join_plan()
        plan.actual_total_ms = 1.5
        plan.actual_rows = 3.0
        restored = PlanNode.from_dict(plan.to_dict())
        assert restored.structure_signature() == plan.structure_signature()
        assert restored.actual_total_ms == 1.5
        assert restored.props["Join Type"] == "inner"

    def test_repr(self):
        assert "Hash Join" in repr(join_plan())
