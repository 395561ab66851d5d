"""FigureResult, the report generator, and the explain utilities."""

import pytest

from repro.bench.common import Claim, FigureResult, SeriesRow
from repro.bench.report import deviation_stats, figure_section, markdown_table
from repro.obs.explain import explain, explain_join, utilization
from repro.costmodel.model import PhaseCost


@pytest.fixture
def figure():
    result = FigureResult(
        figure="Figure X",
        title="test figure",
        paper={"row1": {"s1": 2.0}},
        notes="a note",
    )
    result.add("row1", s1=1.8, s2=5.0)
    result.add("row2", s1=2.2)
    return result


class TestFigureResult:
    def test_series_names_preserve_order(self, figure):
        assert figure.series_names() == ["s1", "s2"]

    def test_series_skips_missing(self, figure):
        assert figure.series("s2") == [5.0]

    def test_value_lookup(self, figure):
        assert figure.value("row2", "s1") == 2.2
        with pytest.raises(KeyError):
            figure.value("row2", "s2")

    def test_paper_value(self, figure):
        assert figure.paper_value("row1", "s1") == 2.0
        assert figure.paper_value("row2", "s1") is None

    def test_table_renders_sim_and_paper(self, figure):
        text = figure.table().render()
        assert "s1 (sim)" in text and "s1 (paper)" in text
        assert "1.8" in text and "2" in text

    def test_render_appends_notes(self, figure):
        assert "a note" in figure.render()


class TestReport:
    def test_markdown_table_shape(self, figure):
        md = markdown_table(figure)
        lines = md.splitlines()
        assert lines[0].startswith("| Figure X |")
        assert lines[1].startswith("|---")
        assert len(lines) == 2 + len(figure.rows)
        assert "1.8 / 2" in md

    def test_deviation_stats(self, figure):
        count, mean_err, max_err = deviation_stats(figure)
        assert count == 1
        assert mean_err == pytest.approx(0.1)
        assert max_err == pytest.approx(0.1)

    def test_deviation_stats_without_anchors(self):
        empty = FigureResult(figure="F", title="t")
        empty.add("r", x=1.0)
        assert deviation_stats(empty) is None

    def test_figure_section(self, figure):
        section = figure_section(figure)
        assert section.startswith("## Figure X")
        assert "mean deviation" in section
        assert "> a note" in section
        claims = (
            Claim("row2 beats row1", lambda r: r.value("row2", "s1") > r.value("row1", "s1")),
            Claim("s2 is below 1", lambda r: r.value("row1", "s2") < 1),
        )
        section = figure_section(figure, claims)
        assert section.endswith("- holds: row2 beats row1\n- **fails**: s2 is below 1")


class TestExplain:
    @pytest.fixture
    def cost(self):
        return PhaseCost(
            seconds=1.0,
            bottleneck="link:x",
            occupancy={"link:x": 0.985, "mem:y": 0.25},
            label="probe",
        )

    def test_utilization_bottleneck_is_100pct(self, cost):
        util = utilization(cost)
        assert util["link:x"] == pytest.approx(1.0)
        assert util["mem:y"] == pytest.approx(0.25 / 0.985)

    def test_utilization_empty(self):
        empty = PhaseCost(seconds=0.0, bottleneck="(none)", occupancy={})
        assert utilization(empty) == {}

    def test_explain_marks_bottleneck(self, cost):
        text = explain(cost)
        assert "<- bottleneck" in text
        assert "link:x" in text
        assert "probe" in text

    def test_explain_join(self, ibm, wl_a):
        from repro.core.join.nopa import NoPartitioningJoin

        result = NoPartitioningJoin(ibm, hash_table_placement="gpu").run(
            wl_a.r, wl_a.s
        )
        text = explain_join(result)
        assert "build" in text and "probe" in text
        assert "G Tuples/s" in text
