"""Logical query specifications.

A :class:`QuerySpec` is the planner's input: which tables are scanned with
which predicates (with *true* selectivities, sampled by the workload
generator), how they join, and what aggregation/ordering sits on top.
This plays the role of the SQL text in the paper's pipeline; the planner
turns it into a physical plan with optimizer estimates, and the simulator
executes it for ground truth.

This module deliberately has no intra-package imports so that both
``repro.workload`` and ``repro.optimizer`` can depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Predicate:
    """A filter predicate on a scanned column.

    ``selectivity`` is the *true* fraction of rows that satisfy the
    predicate — ground truth known to the data generator and the execution
    simulator, but only observable to the optimizer through its (biased)
    estimation model.
    """

    column: str
    op: str  # '=', '<', '>', 'between', 'in'
    selectivity: float

    def __post_init__(self) -> None:
        if not 0.0 < self.selectivity <= 1.0:
            raise ValueError(f"selectivity must be in (0, 1], got {self.selectivity}")
        if self.op not in ("=", "<", ">", "between", "in"):
            raise ValueError(f"unknown predicate op {self.op!r}")


@dataclass(frozen=True)
class TableRef:
    """A scanned base table with its predicates.

    ``correlation`` in [0, 1] expresses how correlated this table's
    predicates are with each other: 0 = independent (the optimizer's
    assumption holds), 1 = fully redundant.  The true combined selectivity
    interpolates between the product and the minimum of the individual
    selectivities.
    """

    table: str
    alias: str
    predicates: tuple[Predicate, ...] = ()
    correlation: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.correlation <= 1.0:
            raise ValueError("correlation must be in [0, 1]")

    def true_selectivity(self) -> float:
        """Combined true selectivity of all predicates on this table."""
        if not self.predicates:
            return 1.0
        product = 1.0
        minimum = 1.0
        for pred in self.predicates:
            product *= pred.selectivity
            minimum = min(minimum, pred.selectivity)
        # Interpolate in log space between independence and full correlation.
        import math

        log_sel = (1.0 - self.correlation) * math.log(product) + self.correlation * math.log(minimum)
        return math.exp(log_sel)


@dataclass(frozen=True)
class JoinEdge:
    """An equi-join between two table aliases.

    ``fk_side`` names the alias whose column is the foreign key (the other
    side's column is the referenced unique key); ``None`` for non-FK joins.
    ``skew`` is the true multiplier on FK match counts relative to the
    uniform assumption — per-template data skew the optimizer cannot see.
    """

    left_alias: str
    left_column: str
    right_alias: str
    right_column: str
    join_type: str = "inner"  # one of: inner, semi, anti, full
    fk_side: Optional[str] = None
    skew: float = 1.0

    def __post_init__(self) -> None:
        if self.join_type not in ("inner", "semi", "anti", "full"):
            raise ValueError(f"unknown join type {self.join_type!r}")
        if self.fk_side is not None and self.fk_side not in (self.left_alias, self.right_alias):
            raise ValueError("fk_side must name one of the joined aliases")
        if self.skew <= 0:
            raise ValueError("skew must be positive")

    def touches(self, alias: str) -> bool:
        return alias in (self.left_alias, self.right_alias)

    def other(self, alias: str) -> str:
        if alias == self.left_alias:
            return self.right_alias
        if alias == self.right_alias:
            return self.left_alias
        raise KeyError(alias)


@dataclass(frozen=True)
class AggregateSpec:
    """GROUP BY / aggregation on top of the join tree.

    ``groups_fraction`` is the true number of output groups as a fraction
    of input rows (1 group for a plain aggregate).
    """

    functions: tuple[str, ...] = ("sum",)
    group_by: tuple[str, ...] = ()
    groups_fraction: float = 0.01

    def __post_init__(self) -> None:
        for fn in self.functions:
            if fn not in ("sum", "avg", "count", "min", "max"):
                raise ValueError(f"unknown aggregate function {fn!r}")
        if not 0.0 < self.groups_fraction <= 1.0:
            raise ValueError("groups_fraction must be in (0, 1]")

    @property
    def is_grouped(self) -> bool:
        return bool(self.group_by)


@dataclass(frozen=True)
class QuerySpec:
    """A complete logical query: the planner's input."""

    template_id: str
    workload: str  # 'tpch' or 'tpcds'
    tables: tuple[TableRef, ...]
    joins: tuple[JoinEdge, ...] = ()
    aggregate: Optional[AggregateSpec] = None
    order_by: tuple[str, ...] = ()
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        aliases = [t.alias for t in self.tables]
        if len(aliases) != len(set(aliases)):
            raise ValueError("duplicate table aliases")
        known = set(aliases)
        for edge in self.joins:
            if edge.left_alias not in known or edge.right_alias not in known:
                raise ValueError(f"join references unknown alias: {edge}")
        if len(self.tables) > 1 and len(self.joins) < len(self.tables) - 1:
            raise ValueError("join graph does not connect all tables")
        if self.limit is not None and self.limit <= 0:
            raise ValueError("limit must be positive")

    def table_ref(self, alias: str) -> TableRef:
        for ref in self.tables:
            if ref.alias == alias:
                return ref
        raise KeyError(f"no alias {alias!r} in query {self.template_id}")
