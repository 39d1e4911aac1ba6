"""Benchmark harness: reporting, contexts, and tiny experiment runs."""

import pytest

from repro.bench import Table, VenueContext, time_queries
from repro.bench.experiments import (
    exp_fig9,
    exp_fig11_range,
    exp_table1,
    exp_table2,
)
from repro.bench.harness import DISTMX_MAX_DOORS


class TestTable:
    def test_render_aligns(self):
        t = Table("Demo", ["a", "bb"], notes="n")
        t.add_row(1, 2.5)
        t.add_row(100, "x")
        text = t.render()
        assert "Demo" in text
        assert "note: n" in text
        assert "100" in text

    def test_markdown(self):
        t = Table("Demo", ["a"])
        t.add_row(3.14159)
        md = t.to_markdown()
        assert md.startswith("### Demo")
        assert "| 3.142 |" in md

    def test_large_numbers_group(self):
        t = Table("x", ["n"])
        t.add_row(1_234_567)
        assert "1,234,567" in t.render()


class TestVenueContext:
    @pytest.fixture(scope="class")
    def ctx(self):
        return VenueContext("MC", "tiny")

    def test_indexes_cached(self, ctx):
        assert ctx.viptree is ctx.viptree
        assert ctx.iptree is ctx.iptree
        assert ctx.gtree is ctx.gtree

    def test_distmx_respects_cap(self, ctx):
        assert ctx.space.num_doors < DISTMX_MAX_DOORS
        assert ctx.distmx is not None

    def test_workloads_cached(self, ctx):
        assert ctx.pairs(5) is ctx.pairs(5)
        assert ctx.objects(4) is ctx.objects(4)

    def test_queries_are_sources(self, ctx):
        qs = ctx.queries(5)
        assert len(qs) == 5

    def test_object_index_matches_tree(self, ctx):
        oi = ctx.object_index("vip", 4)
        assert oi.tree is ctx.viptree


class TestTiming:
    def test_time_queries_counts(self):
        calls = []
        res = time_queries(lambda a: calls.append(a), [(1,), (2,)], repeat=3)
        assert res.queries == 6
        assert len(calls) == 8  # one untimed pass, then three timed ones
        assert res.mean_us >= 0


class TestExperiments:
    def test_table1_runs(self):
        tables = exp_table1(profile="tiny", venues=("MC",))
        assert len(tables) == 1
        assert len(tables[0].rows) == 1
        assert tables[0].rows[0][0] == "MC"

    def test_table2_runs(self):
        tables = exp_table2(profile="tiny", venues=("MC", "Men"))
        assert len(tables[0].rows) == 2
        # measured columns are positive
        for row in tables[0].rows:
            assert row[1] > 0 and row[3] > 0

    def test_fig9_reports_the_superior_door_ablation(self):
        """Men-2: the runner checks the two trees' answers ``==``, and
        Definition 2 leaves fewer entry doors per partition and no more
        door pairs per query."""
        ablation = exp_fig9(profile="tiny", venues=("MC",))[-1]
        superior, every = ablation.rows
        assert (superior[0], every[0]) == ("superior", "all")
        assert superior[1] < every[1]
        assert superior[2] <= every[2]

    def test_fig11range_reports_the_radius_sweep(self):
        sweep = exp_fig11_range(profile="tiny", venues=("MC",))[-1]
        assert [row[0] for row in sweep.rows] == [50.0, 100.0, 500.0]
        assert all(us > 0 for row in sweep.rows for us in row[1:])

    def test_cli_main(self, capsys, tmp_path):
        from repro.bench.__main__ import main

        md = tmp_path / "out.md"
        rc = main(["table2", "--profile", "tiny", "--markdown", str(md)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert md.read_text().startswith("### Table 2")
