"""Unit tests for catalog schema objects and statistics helpers."""

import numpy as np
import pytest

from repro.catalog import (
    Column,
    Index,
    Schema,
    Table,
    categorical_column,
    date_column,
    fk_column,
    int_key_column,
    numeric_column,
    scaled,
)
from repro.catalog.schema import PAGE_SIZE_BYTES


def make_table(rows=1000):
    return Table(
        "t",
        [int_key_column("id", rows), numeric_column("v", 0, 100, 50, np.random.default_rng(0))],
        rows,
        indexes=[Index("t_pkey", "t", "id", unique=True, clustered=True)],
    )


class TestColumn:
    def test_valid_column(self):
        col = Column("c", "int", 0, 5, 10, 11, 4)
        assert col.ndv == 11

    def test_rejects_bad_dtype(self):
        with pytest.raises(ValueError):
            Column("c", "blob", 0, 5, 10, 11, 4)

    def test_rejects_unordered_stats(self):
        with pytest.raises(ValueError):
            Column("c", "int", 10, 5, 0, 11, 4)

    def test_rejects_nonpositive_ndv_and_width(self):
        with pytest.raises(ValueError):
            Column("c", "int", 0, 5, 10, 0, 4)
        with pytest.raises(ValueError):
            Column("c", "int", 0, 5, 10, 5, 0)


class TestTable:
    def test_page_count_positive(self):
        assert make_table().page_count >= 1

    def test_page_count_scales_with_rows(self):
        assert make_table(100_000).page_count > make_table(100).page_count

    def test_row_width_includes_header(self):
        t = make_table()
        assert t.row_width == sum(c.width for c in t.columns) + 24

    def test_rows_per_page_bounded_by_page_size(self):
        t = make_table(10_000)
        assert t.page_count >= 10_000 * t.row_width // PAGE_SIZE_BYTES

    def test_column_lookup(self):
        t = make_table()
        assert t.column("id").name == "id"
        with pytest.raises(KeyError):
            t.column("nope")
        assert t.has_column("v")
        assert not t.has_column("nope")

    def test_index_on(self):
        t = make_table()
        assert t.index_on("id") is not None
        assert t.index_on("v") is None

    def test_duplicate_columns_rejected(self):
        col = int_key_column("id", 10)
        with pytest.raises(ValueError):
            Table("t", [col, col], 10)

    def test_negative_rows_rejected(self):
        with pytest.raises(ValueError):
            Table("t", [int_key_column("id", 10)], -1)


class TestSchema:
    def test_lookup_and_iteration(self):
        s = Schema("test", [make_table()])
        assert "t" in s
        assert len(s) == 1
        assert s.table("t").name == "t"
        with pytest.raises(KeyError):
            s.table("missing")

    def test_duplicate_tables_rejected(self):
        with pytest.raises(ValueError):
            Schema("test", [make_table(), make_table()])

    def test_totals(self):
        s = Schema("test", [make_table(100), ])
        assert s.total_rows() == 100


class TestStatisticsHelpers:
    def test_int_key_column_dense(self):
        col = int_key_column("k", 100)
        assert col.min_value == 1.0
        assert col.max_value == 100.0
        assert col.ndv == 100

    def test_fk_column_matches_parent(self):
        assert fk_column("f", 500).ndv == 500

    def test_numeric_column_median_within_range(self):
        rng = np.random.default_rng(0)
        col = numeric_column("v", 0.0, 100.0, 10, rng, skew=0.9)
        assert 0.0 <= col.median_value <= 100.0

    def test_numeric_column_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            numeric_column("v", 10.0, 0.0, 10, np.random.default_rng(0))

    def test_date_column_range(self):
        col = date_column("d", np.random.default_rng(0))
        assert col.dtype == "date"
        assert col.min_value < col.median_value < col.max_value

    def test_categorical_rank_encoding(self):
        col = categorical_column("c", 10)
        assert col.min_value == 0.0
        assert col.max_value == 9.0
        assert col.ndv == 10

    def test_scaled(self):
        assert scaled(100, 2.5) == 250
        assert scaled(1, 0.0001) == 1  # never below 1
