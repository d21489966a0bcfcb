"""Database catalog: tables, columns, indexes.

The catalog plays the role of PostgreSQL's ``pg_class`` / ``pg_statistic``:
it gives the planner row counts, page counts and per-attribute statistics,
and gives the featurizer the attribute min/median/max values that the
paper's Appendix B lists as scan-unit inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

PAGE_SIZE_BYTES = 8192  # PostgreSQL default block size


@dataclass(frozen=True)
class Column:
    """A column with planner-visible statistics.

    ``min_value`` / ``median_value`` / ``max_value`` are numeric encodings
    (dates as days-since-epoch, strings as lexicographic ranks) so they can
    feed the featurizer directly, mirroring the "Attribute Mins/Medians/
    Maxs" features of the paper's Table 2.
    """

    name: str
    dtype: str  # 'int' | 'float' | 'date' | 'str'
    min_value: float
    median_value: float
    max_value: float
    ndv: int  # number of distinct values
    width: int  # average width in bytes

    def __post_init__(self) -> None:
        if self.dtype not in ("int", "float", "date", "str"):
            raise ValueError(f"unknown dtype {self.dtype!r}")
        if not self.min_value <= self.median_value <= self.max_value:
            raise ValueError(f"column {self.name}: min <= median <= max violated")
        if self.ndv <= 0:
            raise ValueError(f"column {self.name}: ndv must be positive")
        if self.width <= 0:
            raise ValueError(f"column {self.name}: width must be positive")


@dataclass(frozen=True)
class Index:
    """A B-tree index over a single column."""

    name: str
    table: str
    column: str
    unique: bool = False
    clustered: bool = False


@dataclass
class Table:
    """A base relation with row/page counts and column statistics."""

    name: str
    columns: list[Column]
    row_count: int
    indexes: list[Index] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.row_count < 0:
            raise ValueError(f"table {self.name}: negative row count")
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise ValueError(f"table {self.name}: duplicate column names")

    @property
    def row_width(self) -> int:
        """Average tuple width in bytes (sum of column widths + header)."""
        return sum(c.width for c in self.columns) + 24  # 24B tuple header

    @property
    def page_count(self) -> int:
        """Heap pages needed to store the table (fill factor ~ 1)."""
        rows_per_page = max(1, PAGE_SIZE_BYTES // max(1, self.row_width))
        return max(1, -(-self.row_count // rows_per_page))

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(f"table {self.name} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    def index_on(self, column: str) -> Optional[Index]:
        for idx in self.indexes:
            if idx.column == column:
                return idx
        return None


class Schema:
    """A named collection of tables — the planner's view of a database."""

    def __init__(self, name: str, tables: list[Table]) -> None:
        self.name = name
        self._tables = {t.name: t for t in tables}
        if len(self._tables) != len(tables):
            raise ValueError("duplicate table names in schema")

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"schema {self.name} has no table {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def total_rows(self) -> int:
        return sum(t.row_count for t in self)
