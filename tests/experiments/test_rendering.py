"""Tests for result containers, rendering helpers, table1 and config."""

from repro.experiments.runner import SeriesResult, render_series, render_table
from repro.experiments.table1 import render_table1, run_table1


class TestRenderTable:
    def test_contains_rows_and_columns(self):
        text = render_table(
            "My Figure", ["colA", "colB"],
            {"ours": [1.5, 2.5], "baseline": [10.0, 20.0]},
            unit="s",
        )
        assert "My Figure" in text
        assert "[s]" in text
        assert "colA" in text and "colB" in text
        assert "ours" in text and "baseline" in text
        assert "1.5" in text

    def test_large_numbers_group_separated(self):
        text = render_table("T", ["c"], {"r": [12345.0]})
        assert "12,345" in text


class TestRenderSeries:
    def test_series_layout(self):
        s1 = SeriesResult("ours")
        s1.add(1, 10.0)
        s1.add(30, 12.0)
        s2 = SeriesResult("precopy")
        s2.add(1, 20.0)
        s2.add(30, 50.0)
        text = render_series("Fig", "#migrations", [s1, s2], unit="s")
        assert "#migrations" in text
        assert "ours" in text and "precopy" in text
        lines = text.splitlines()
        assert any("50" in ln for ln in lines)

    def test_integer_x_values_print_without_decimals(self):
        s = SeriesResult("ours")
        for n in (1, 10, 20, 30):
            s.add(n, 12.0)
        header = render_series("Fig", "#migrations", [s]).splitlines()[1]
        assert header.split() == ["#migrations", "1", "10", "20", "30"]

    def test_empty_series(self):
        assert "no data" in render_series("Fig", "x", [])


class TestTable1:
    def test_five_rows_in_paper_order(self):
        rows = run_table1()
        assert [name for name, _ in rows] == [
            "our-approach", "mirror", "postcopy", "precopy", "pvfs-shared",
        ]

    def test_render_contains_strategies(self):
        text = render_table1()
        assert "Sync writes both at src and dest" in text
        assert "Pull from src after transfer of control" in text


class TestConfig:
    def test_graphene_spec_overrides(self):
        from repro.experiments.config import GRAPHENE, graphene_spec

        spec = graphene_spec(10, nic_bw=50e6)
        assert spec.n_nodes == 10
        assert spec.nic_bw == 50e6
        assert spec.disk_bw == GRAPHENE["disk_bw"]

    def test_normalization_constants(self):
        from repro.experiments.config import (
            ASYNCWR_MAX_WRITE,
            IOR_MAX_READ,
            IOR_MAX_WRITE,
        )

        assert IOR_MAX_READ == 1e9
        assert IOR_MAX_WRITE == 266e6
        assert ASYNCWR_MAX_WRITE == 6e6
