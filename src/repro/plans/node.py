"""Query execution plan trees.

A :class:`PlanNode` mirrors one node of a PostgreSQL ``EXPLAIN (FORMAT
JSON)`` plan: a physical operator, a property map of optimizer estimates
and physical details (the featurizer's raw input — paper Appendix B), and
child nodes.  After simulation (our ``EXPLAIN ANALYZE``), nodes also carry
``actual_rows`` and ``actual_total_ms``; the paper's per-operator label
``l(o)`` is ``actual_total_ms`` (inclusive of the subtree, like
PostgreSQL's "actual total time").

``truth`` holds simulator-internal ground truth (true cardinalities,
device factors).  It is never exposed to any model: featurization reads
``props`` only.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from .operators import (
    PHYSICAL_TO_LOGICAL,
    LogicalType,
    PhysicalOp,
    logical_type_of,
)

#: Physical op -> logical type *name*, pre-resolved for the signature walk.
_LOGICAL_NAME_OF_OP: dict[PhysicalOp, str] = {
    op: ltype.value for op, ltype in PHYSICAL_TO_LOGICAL.items()
}


class PlanNode:
    """One operator in a query execution plan tree."""

    __slots__ = ("op", "props", "children", "actual_rows", "actual_total_ms", "truth")

    def __init__(
        self,
        op: PhysicalOp,
        props: Optional[dict[str, Any]] = None,
        children: Optional[list["PlanNode"]] = None,
    ) -> None:
        self.op = op
        self.props: dict[str, Any] = dict(props) if props else {}
        self.children: list[PlanNode] = list(children) if children else []
        self.actual_rows: Optional[float] = None
        self.actual_total_ms: Optional[float] = None
        self.truth: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    @property
    def logical_type(self) -> LogicalType:
        return logical_type_of(self.op)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def preorder(self) -> Iterator["PlanNode"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def postorder(self) -> Iterator["PlanNode"]:
        stack: list[tuple[PlanNode, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
                continue
            stack.append((node, True))
            for child in reversed(node.children):
                stack.append((child, False))

    def node_count(self) -> int:
        return sum(1 for _ in self.preorder())

    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def leaves(self) -> Iterator["PlanNode"]:
        return (n for n in self.preorder() if n.is_leaf)

    # ------------------------------------------------------------------
    # Structure equivalence (for plan-based batch training, §5.1.1)
    # ------------------------------------------------------------------
    def structure_signature(self) -> str:
        """Canonical string identifying the logical tree shape.

        Two plans with equal signatures have node-for-node aligned unit
        types, so their per-node feature matrices can be stacked and run
        through the units as batches.  This runs per request on the
        serving hot path (bucket key), hence the local lookup table and
        iterative walk.
        """
        type_names = _LOGICAL_NAME_OF_OP
        parts: list[str] = []
        append = parts.append
        # Iterative preorder with explicit close-paren/comma markers.
        stack: list[object] = [self]
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                append(item)
                continue
            append(type_names[item.op])
            if item.children:
                append("(")
                stack.append(")")
                for i in range(len(item.children) - 1, -1, -1):
                    stack.append(item.children[i])
                    if i:
                        stack.append(",")
        return "".join(parts)

    # ------------------------------------------------------------------
    # Editing / copying
    # ------------------------------------------------------------------
    def clone(self) -> "PlanNode":
        """Deep copy of the subtree (props shallow-copied per node)."""
        copy = PlanNode(self.op, dict(self.props), [c.clone() for c in self.children])
        copy.actual_rows = self.actual_rows
        copy.actual_total_ms = self.actual_total_ms
        copy.truth = dict(self.truth)
        return copy

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"Node Type": self.op.value, **self.props}
        if self.actual_rows is not None:
            out["Actual Rows"] = self.actual_rows
        if self.actual_total_ms is not None:
            out["Actual Total Time"] = self.actual_total_ms
        if self.children:
            out["Plans"] = [child.to_dict() for child in self.children]
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PlanNode":
        data = dict(data)
        op = PhysicalOp(data.pop("Node Type"))
        children = [cls.from_dict(c) for c in data.pop("Plans", [])]
        actual_rows = data.pop("Actual Rows", None)
        actual_total = data.pop("Actual Total Time", None)
        node = cls(op, data, children)
        node.actual_rows = actual_rows
        node.actual_total_ms = actual_total
        return node

    def __repr__(self) -> str:
        return f"PlanNode({self.op.value}, children={len(self.children)})"


def operator_instances(root: PlanNode) -> list[PlanNode]:
    """All operator instances of a plan — the paper's set ``D`` per plan."""
    return list(root.preorder())
