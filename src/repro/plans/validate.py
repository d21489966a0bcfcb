"""Structural validation of plan trees.

Catches planner bugs early: wrong arity, missing required properties,
non-monotonic cumulative costs, negative estimates.  Used in planner
tests, as a guard in the corpus generator, and — since it rejects
malformed plans at the serving boundary
(:meth:`~repro.serving.service.PredictionService.submit` wraps the
error as a typed ``InvalidPlanError``) — :func:`validate_plan` sits on
the hot admission path and is written as one iterative walk over
pre-resolved per-operator tables rather than a property-accessor stroll
(~3x cheaper per plan).
"""

from __future__ import annotations

from .node import PlanNode
from .operators import PHYSICAL_TO_LOGICAL, LogicalType, PhysicalOp, arity_of

#: Properties every node must carry (the "All" rows of paper Table 2).
UNIVERSAL_PROPS = ("Plan Rows", "Plan Width", "Total Cost", "Plan Buffers", "Estimated I/Os")

#: Extra required properties by physical operator.
REQUIRED_BY_OP: dict[PhysicalOp, tuple[str, ...]] = {
    PhysicalOp.SEQ_SCAN: ("Relation Name",),
    PhysicalOp.INDEX_SCAN: ("Relation Name", "Index Name", "Scan Direction"),
    PhysicalOp.HASH_JOIN: ("Join Type",),
    PhysicalOp.MERGE_JOIN: ("Join Type",),
    PhysicalOp.NESTED_LOOP: ("Join Type",),
    PhysicalOp.SORT: ("Sort Key", "Sort Method"),
    PhysicalOp.HASH: ("Hash Buckets", "Hash Algorithm"),
    PhysicalOp.AGGREGATE: ("Strategy", "Partial Mode", "Operator"),
}


class PlanValidationError(ValueError):
    """Raised when a plan tree violates a structural invariant."""


#: Fused per-operator check table: ``(expected arity, required property
#: set)`` in one lookup.  The property set is a frozenset so the
#: per-node requirement check is a single C-level ``dict.keys() >= set``
#: comparison instead of a Python loop of membership tests; the ordered
#: tuple rides along only to name the first missing key (in declaration
#: order) on the failure path.
_CHECKS_OF_OP: dict[PhysicalOp, tuple[int, frozenset, tuple[str, ...]]] = {
    op: (
        arity_of(PHYSICAL_TO_LOGICAL[op]),
        frozenset(UNIVERSAL_PROPS + REQUIRED_BY_OP.get(op, ())),
        UNIVERSAL_PROPS + REQUIRED_BY_OP.get(op, ()),
    )
    for op in PhysicalOp
}


def validate_plan(root: PlanNode, analyzed: bool = False) -> None:
    """Raise :class:`PlanValidationError` on the first violated invariant.

    One iterative preorder walk checks arity, required properties and
    estimate sanity per node (plus actuals when ``analyzed``); the first
    violation raises, naming the operator and the broken invariant.
    """
    checks_of_op = _CHECKS_OF_OP
    stack = [root]
    pop = stack.pop
    while stack:
        node = pop()
        op = node.op
        children = node.children
        expected, required, ordered = checks_of_op[op]
        if len(children) != expected:
            raise PlanValidationError(
                f"{op.value}: expected {expected} children, found {len(children)}"
            )
        props = node.props
        if not props.keys() >= required:
            for key in ordered:
                if key not in props:
                    raise PlanValidationError(f"{op.value}: missing property {key!r}")
        if props["Plan Rows"] < 0:
            raise PlanValidationError(f"{op.value}: negative row estimate")
        total_cost = props["Total Cost"]
        if total_cost < 0:
            raise PlanValidationError(f"{op.value}: negative cost")
        if analyzed:
            _check_actuals(node)
        if children:
            # Total cost is cumulative: a parent must cost at least any child.
            bound = total_cost + 1e-6
            for child in children:
                if bound < child.props["Total Cost"]:
                    raise PlanValidationError(
                        f"{op.value}: cumulative cost below child {child.op.value}"
                    )
            stack.extend(reversed(children))


def _check_actuals(node: PlanNode) -> None:
    if node.actual_total_ms is None or node.actual_rows is None:
        raise PlanValidationError(f"{node.op.value}: missing actuals on analyzed plan")
    if node.actual_total_ms < 0:
        raise PlanValidationError(f"{node.op.value}: negative actual time")
    for child in node.children:
        if child.actual_total_ms is not None and node.actual_total_ms + 1e-9 < child.actual_total_ms:
            raise PlanValidationError(
                f"{node.op.value}: actual time below child (not cumulative)"
            )


def count_logical(root: PlanNode) -> dict[LogicalType, int]:
    """Histogram of logical operator types in a plan (for diagnostics)."""
    counts: dict[LogicalType, int] = {}
    for node in root.preorder():
        counts[node.logical_type] = counts.get(node.logical_type, 0) + 1
    return counts
