"""Speedup decisions, crossover thresholds and the efficiency band."""

import io
from fractions import Fraction

import pytest

from sumeter import (
    MODEL_IDS,
    ApplicationBenchmark,
    ModelError,
    NodeChoice,
    PuhtiModel,
    PuhtiRates,
    ValidationError,
    crossover_sweep,
    decide_and_energy,
    decision_threshold,
    efficiency_band,
    get_model,
    speedup_from_time,
    write_sweep_csv,
)
from sumeter.analysis import MAX_SWEEP_STEPS

ENERGY = get_model("energy")
SM = get_model("sm")
PEAK = get_model("peak-perf")


class TestSpeedup:
    def test_unit(self):
        assert speedup_from_time(1) == 1

    def test_tenth(self):
        assert speedup_from_time(Fraction(1, 10)) == 10

    def test_amber_like(self):
        assert speedup_from_time(Fraction(1, 153)) == 153

    def test_nonpositive(self):
        with pytest.raises(ValidationError):
            speedup_from_time(0)
        with pytest.raises(ValidationError):
            speedup_from_time(-2)


class TestDecideAndEnergy:
    def test_no_speedup_stays_on_cpu(self, cpu_node, gpu_node):
        for model in (ENERGY, SM, PEAK):
            point = decide_and_energy(1, model, cpu_node, gpu_node)
            assert point.chosen is NodeChoice.CPU
            assert point.ec_total_wh == 300

    def test_energy_model_at_s10(self, cpu_node, gpu_node):
        point = decide_and_energy(10, ENERGY, cpu_node, gpu_node)
        assert point.su_gpu == Fraction(96, 5)  # 19.2 < 36
        assert point.chosen is NodeChoice.GPU
        assert point.ec_total_wh == 160  # 1600/10

    def test_sm_model_at_s10(self, cpu_node, gpu_node):
        point = decide_and_energy(10, SM, cpu_node, gpu_node)
        assert point.su_gpu == Fraction(216, 5)  # 43.2 > 36
        assert point.chosen is NodeChoice.CPU
        assert point.ec_total_wh == 300

    def test_tie_goes_to_cpu(self, cpu_node, gpu_node):
        threshold = decision_threshold(ENERGY, cpu_node, gpu_node)
        point = decide_and_energy(threshold, ENERGY, cpu_node, gpu_node)
        assert point.su_cpu == point.su_gpu
        assert point.chosen is NodeChoice.CPU

    def test_baseline_hours_scale_both_prices(self, cpu_node, gpu_node):
        point = decide_and_energy(10, ENERGY, cpu_node, gpu_node, baseline_hours=Fraction(1, 2))
        assert point.su_cpu == 18
        assert point.su_gpu == Fraction(48, 5)
        assert point.ec_total_wh == 80

    @pytest.mark.parametrize(
        "speedup, baseline_hours, message",
        [
            (0, 1, "speedup must be positive"),
            (-2, 1, "speedup must be positive"),
            (10, 0, "baseline_hours must be positive"),
            (10, -1, "baseline_hours must be positive"),
        ],
    )
    def test_a_speedup_or_baseline_of_zero_or_less_is_refused(
        self, cpu_node, gpu_node, speedup, baseline_hours, message
    ):
        with pytest.raises(ValidationError) as raised:
            decide_and_energy(speedup, ENERGY, cpu_node, gpu_node, baseline_hours)
        assert str(raised.value) == message


class TestThresholds:
    def test_reference_values(self, cpu_node, gpu_node):
        assert decision_threshold(ENERGY, cpu_node, gpu_node) == Fraction(16, 3)
        assert decision_threshold(SM, cpu_node, gpu_node) == 12
        assert decision_threshold(PEAK, cpu_node, gpu_node) == Fraction(194, 15)

    def test_switch_happens_at_threshold(self, cpu_node, gpu_node):
        for model in (ENERGY, SM, PEAK):
            threshold = decision_threshold(model, cpu_node, gpu_node)
            just_below = decide_and_energy(threshold * Fraction(999, 1000), model, cpu_node, gpu_node)
            just_above = decide_and_energy(threshold * Fraction(1001, 1000), model, cpu_node, gpu_node)
            assert just_below.chosen is NodeChoice.CPU
            assert just_above.chosen is NodeChoice.GPU

    def test_a_cpu_node_priced_at_zero_is_a_model_error(self, cpu_node, gpu_node):
        gpu_only = PuhtiModel(PuhtiRates(core=0, memory_gib=0, nvme_gib=0, gpu=60))
        assert gpu_only.node_weight(cpu_node) == 0 and gpu_only.node_weight(gpu_node) == 240
        with pytest.raises(ModelError, match="model 'puhti' prices CPU node type 'dual-xeon-6240' at zero"):
            decision_threshold(gpu_only, cpu_node, gpu_node)
        with pytest.raises(ModelError, match="model 'puhti'"):
            efficiency_band([ENERGY, gpu_only], cpu_node, gpu_node)


class TestCrossoverSweep:
    def test_point_count_and_order(self, cpu_node, gpu_node):
        points = crossover_sweep(ENERGY, cpu_node, gpu_node, 1, 20, 96)
        assert len(points) == 96
        assert points[0].speedup == 1
        assert points[-1].speedup == 20
        speedups = [p.speedup for p in points]
        assert speedups == sorted(speedups)

    @pytest.mark.parametrize("model_id", MODEL_IDS)
    def test_each_point_is_decide_and_energy_on_weights_worked_out_once(
        self, model_id, cpu_node, gpu_node, monkeypatch
    ):
        model = get_model(model_id)
        expected = [decide_and_energy(Fraction(1) + Fraction(19 * i, 95), model, cpu_node, gpu_node) for i in range(96)]
        weighed = []
        node_weight = type(model).node_weight
        monkeypatch.setattr(
            type(model), "node_weight", lambda self, node: weighed.append(node) or node_weight(self, node)
        )
        assert crossover_sweep(model, cpu_node, gpu_node, 1, 20, 96) == expected
        assert weighed == [cpu_node, gpu_node]

    def test_bad_range(self, cpu_node, gpu_node):
        with pytest.raises(ValidationError):
            crossover_sweep(ENERGY, cpu_node, gpu_node, 1, 1, 10)
        with pytest.raises(ValidationError):
            crossover_sweep(ENERGY, cpu_node, gpu_node, 2, 20, 1)

    def test_steps_are_bounded(self, cpu_node, gpu_node):
        with pytest.raises(ValidationError, match=f"at most {MAX_SWEEP_STEPS} sweep steps, got {MAX_SWEEP_STEPS + 1}"):
            crossover_sweep(ENERGY, cpu_node, gpu_node, 1, 20, MAX_SWEEP_STEPS + 1)

    @pytest.mark.parametrize("steps", [2.5, True])
    def test_steps_must_be_an_integer(self, cpu_node, gpu_node, steps):
        with pytest.raises(ValidationError, match="^sweep steps must be an integer$"):
            crossover_sweep(ENERGY, cpu_node, gpu_node, 1, 20, steps)
        with pytest.raises(ValidationError, match="^sweep steps must be an integer$"):
            write_sweep_csv([ENERGY], cpu_node, gpu_node, io.StringIO(), 1, 20, steps)

    def test_energy_non_increasing_once_on_gpu(self, cpu_node, gpu_node):
        points = crossover_sweep(ENERGY, cpu_node, gpu_node, 1, 20, 96)
        previous = None
        for point in points:
            if point.chosen is NodeChoice.CPU:
                assert point.ec_total_wh == 300
            elif previous is not None and previous.chosen is NodeChoice.GPU:
                assert point.ec_total_wh <= previous.ec_total_wh
            previous = point

    def test_decision_monotone_in_speedup(self, cpu_node, gpu_node):
        points = crossover_sweep(SM, cpu_node, gpu_node, 1, 20, 96)
        seen_gpu = False
        for point in points:
            if point.chosen is NodeChoice.GPU:
                seen_gpu = True
            elif seen_gpu:
                pytest.fail("fell back to CPU after switching to GPU")


class TestEfficiencyBand:
    def test_against_sm(self, cpu_node, gpu_node):
        assert efficiency_band([ENERGY, SM], cpu_node, gpu_node) == (Fraction(16, 3), Fraction(12))

    def test_against_peak(self, cpu_node, gpu_node):
        assert efficiency_band([ENERGY, PEAK], cpu_node, gpu_node) == (Fraction(16, 3), Fraction(194, 15))

    def test_against_both_rivals(self, cpu_node, gpu_node):
        low, high = efficiency_band([ENERGY, SM, PEAK], cpu_node, gpu_node)
        assert (low, high) == (Fraction(16, 3), Fraction(194, 15))

    def test_energy_against_itself_is_empty(self, cpu_node, gpu_node):
        low, high = efficiency_band([ENERGY, get_model("energy")], cpu_node, gpu_node)
        assert low == high == Fraction(16, 3)

    def test_requires_energy_model(self, cpu_node, gpu_node):
        with pytest.raises(ModelError):
            efficiency_band([SM, PEAK], cpu_node, gpu_node)
        with pytest.raises(ModelError):
            efficiency_band([ENERGY], cpu_node, gpu_node)


class TestSweepCsv:
    def test_row_count_and_columns(self, cpu_node, gpu_node):
        buffer = io.StringIO()
        write_sweep_csv([ENERGY, SM], cpu_node, gpu_node, buffer, 1, 20, 20)
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == 21  # header plus one row per step
        header = lines[0].split(",")
        assert header[0] == "speedup"
        assert "su_gpu_energy" in header and "chosen_sm" in header and "ec_wh_energy" in header

    def test_deterministic(self, cpu_node, gpu_node):
        first, second = io.StringIO(), io.StringIO()
        write_sweep_csv([ENERGY], cpu_node, gpu_node, first, 1, 20, 12)
        write_sweep_csv([ENERGY], cpu_node, gpu_node, second, 1, 20, 12)
        assert first.getvalue() == second.getvalue()

    def test_needs_a_model_before_writing(self, cpu_node, gpu_node):
        out = io.StringIO()
        with pytest.raises(ValidationError) as raised:
            write_sweep_csv([], cpu_node, gpu_node, out, 1, 20, 3)
        assert str(raised.value) == "the sweep needs at least one model"
        assert out.getvalue() == ""


class TestApplicationBenchmark:
    def test_rejects_zero_ratio(self):
        with pytest.raises(ValidationError):
            ApplicationBenchmark("x", 0)

    @pytest.mark.parametrize("perf_ratio", [1.5, True, "4"])
    def test_perf_ratio_must_be_an_int(self, perf_ratio):
        with pytest.raises(ValidationError, match="perf_ratio must be an integer"):
            ApplicationBenchmark("x", perf_ratio)
