"""Benchmark table regeneration against the published golden values."""

from fractions import Fraction

import pytest

from sumeter import (
    PUBLISHED_TABLES,
    ValidationError,
    build_table,
    compare_with_published,
    embedded_fixture,
    get_model,
    printed_ratio_matches,
)
from sumeter.tables import table_csv, table_text


class TestEmbeddedFixture:
    def test_processor_values(self):
        cpu, gpu, apps = embedded_fixture()
        assert cpu.tdp_watts == 150
        assert cpu.cores == 18
        assert cpu.peak_flops == Fraction(1500000000000)
        assert gpu.tdp_watts == 400
        assert gpu.streaming_multiprocessors == 108
        assert gpu.peak_flops == Fraction(9700000000000)

    def test_thirteen_applications(self):
        _, _, apps = embedded_fixture()
        assert len(apps) == 13
        ratios = {app.name: app.perf_ratio for app in apps}
        assert ratios["FUN3D"] == 41
        assert ratios["AMBER"] == 153
        assert ratios["Relion"] == 12
        assert ratios["ICON"] == 15


class TestBuildTable:
    def test_sm_fun3d_row(self, cpu_node, gpu_node):
        _, _, apps = embedded_fixture()
        rows = build_table(get_model("sm"), apps, cpu_node, gpu_node)
        fun3d = rows[0]
        assert fun3d.application == "FUN3D"
        assert fun3d.cpu_charge == 1476
        assert fun3d.gpu_charge == 432
        assert printed_ratio_matches(fun3d.cost_ratio, "3.42")

    def test_energy_amber_row(self, cpu_node, gpu_node):
        _, _, apps = embedded_fixture()
        rows = build_table(get_model("energy"), apps, cpu_node, gpu_node)
        amber = next(r for r in rows if r.application == "AMBER")
        assert amber.cpu_charge == 5508
        assert amber.gpu_charge == 192
        assert amber.cost_ratio == Fraction(459, 16)  # 28.6875, printed as 28.68
        assert printed_ratio_matches(amber.cost_ratio, "28.68")

    def test_peak_relion_row(self, cpu_node, gpu_node):
        _, _, apps = embedded_fixture()
        rows = build_table(get_model("peak-perf"), apps, cpu_node, gpu_node)
        relion = next(r for r in rows if r.application == "Relion")
        assert relion.cpu_charge == 432
        assert relion.gpu_charge == Fraction(2328, 5)
        assert printed_ratio_matches(relion.cost_ratio, "0.93")

    def test_ratio_ordering_follows_perf_ratio(self, cpu_node, gpu_node):
        _, _, apps = embedded_fixture()
        for model_id in ("energy", "sm", "peak-perf"):
            rows = build_table(get_model(model_id), apps, cpu_node, gpu_node)
            by_perf = sorted(rows, key=lambda r: r.perf_ratio)
            ratios = [r.cost_ratio for r in by_perf]
            assert ratios == sorted(ratios)

    def test_empty_apps_rejected(self, cpu_node, gpu_node):
        with pytest.raises(ValidationError):
            build_table(get_model("energy"), [], cpu_node, gpu_node)


class TestPrintedRatioMatching:
    def test_truncated_cases(self):
        assert printed_ratio_matches(Fraction(51, 4), "12.7")  # 12.75 printed truncated
        assert printed_ratio_matches(Fraction(459, 16), "28.68")  # 28.6875 truncated

    def test_rounded_cases(self):
        assert printed_ratio_matches(Fraction(315, 16), "19.69")  # 19.6875 rounded up
        assert printed_ratio_matches(Fraction(41, 12), "3.42")  # 3.4166..

    def test_rejects_a_real_mismatch(self):
        assert not printed_ratio_matches(Fraction(300, 100), "3.42")
        assert not printed_ratio_matches(Fraction(1285, 100), "12.7")

    @pytest.mark.parametrize(
        "printed, problem",
        [("x", "not a number: 'x'"), ("1/0", "not a number: '1/0'"), (1, "printed ratio must be a string, got int")],
        ids=["text", "zero-denominator", "int"],
    )
    def test_a_printed_ratio_that_is_not_number_text_is_refused(self, printed, problem):
        with pytest.raises(ValidationError) as raised:
            printed_ratio_matches(1, printed)
        assert str(raised.value) == problem


class TestPublishedComparison:
    @pytest.mark.parametrize("number", [2, 3, 4])
    def test_every_row_matches(self, number):
        comparisons = compare_with_published(number)
        assert len(comparisons) == 13
        for comparison in comparisons:
            assert comparison.cpu_charge_matches, comparison.row.application
            assert comparison.gpu_charge_matches, comparison.row.application
            assert comparison.ratio_matches, comparison.row.application

    def test_gpu_charges_per_model(self):
        assert PUBLISHED_TABLES[2].gpu_charge == 432
        assert PUBLISHED_TABLES[3].gpu_charge == 466
        assert PUBLISHED_TABLES[4].gpu_charge == 192

    def test_unknown_table(self):
        with pytest.raises(ValidationError):
            compare_with_published(5)

    def test_an_unhashable_table_number_is_unknown(self):
        with pytest.raises(ValidationError) as raised:
            compare_with_published([])
        assert str(raised.value) == "no published table []; have [2, 3, 4]"


class TestRendering:
    def test_text_contains_rows_and_summary(self):
        comparisons = compare_with_published(4)
        text = table_text(4, comparisons)
        assert "FUN3D" in text
        assert "1,476" in text
        assert "13/13" in text

    def test_csv_has_header_and_13_rows(self):
        comparisons = compare_with_published(2)
        lines = table_csv(comparisons).strip().splitlines()
        assert lines[0].startswith("application,perf_ratio,cpu_charge")
        assert len(lines) == 14
        assert all(line.endswith(",true") for line in lines[1:])
