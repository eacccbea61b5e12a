"""Rival charge models: weights, job semantics and the model registry."""

from fractions import Fraction

import pytest

from sumeter import (
    CapacityError,
    JobRequest,
    ModelError,
    NodeType,
    NodeUsage,
    Partition,
    ProcessorSpec,
    PuhtiModel,
    PuhtiRates,
    ValidationError,
    get_model,
    peak_perf_weight,
    puhti_bu,
    puhti_tdp_core_ratio,
    puhti_tdp_equivalence,
    sm_based_weight,
    titan_node_charge,
)
from sumeter.core import _cells
from sumeter.models import MODEL_IDS


def titan_node():
    cpu = ProcessorSpec.cpu("Opteron", 16, 115, 1.4e11)
    gpu = ProcessorSpec.gpu("Kepler K20X", 14, 235, 1.3e12)
    return NodeType("opteron-kepler", cpus=(cpu,), memory_total_gib=32, gpus=(gpu,))


class TestSmWeight:
    def test_reference_gpu_node(self, gpu_node):
        assert sm_based_weight(gpu_node) == 432

    def test_single_sm(self):
        cpu = ProcessorSpec.cpu("c", 1, 100, 1e12)
        gpu = ProcessorSpec.gpu("g", 1, 100, 1e12)
        node = NodeType("n", cpus=(cpu,), memory_total_gib=8, gpus=(gpu,))
        assert sm_based_weight(node) == 1

    def test_two_gpus(self):
        cpu = ProcessorSpec.cpu("c", 1, 100, 1e12)
        gpu = ProcessorSpec.gpu("g", 108, 400, 1e12)
        node = NodeType("n", cpus=(cpu,), memory_total_gib=8, gpus=(gpu, gpu))
        assert sm_based_weight(node) == 216

    def test_gpuless_node(self, cpu_node):
        with pytest.raises(ModelError):
            sm_based_weight(cpu_node)


class TestPeakPerfWeight:
    def test_reference_nodes(self, cpu_node, gpu_node):
        weight = peak_perf_weight(gpu_node, cpu_node)
        assert weight == Fraction(2328, 5)  # 465.6 exactly

    def test_ratio_one_gives_core_count(self, cpu_node):
        gpu = ProcessorSpec.gpu("g", 10, 400, 3e12)
        node = NodeType("n", cpus=cpu_node.cpus, memory_total_gib=64, gpus=(gpu,))
        assert peak_perf_weight(node, cpu_node) == 36

    def test_division(self, cpu_node, gpu_node):
        assert gpu_node.gpu_peak_flops / cpu_node.cpu_peak_flops == Fraction(194, 15)

    def test_own_cpus_as_default_reference(self, gpu_node):
        model = get_model("peak-perf")
        assert model.node_weight(gpu_node) == Fraction(2328, 5)

    def test_gpuless_node(self, cpu_node):
        with pytest.raises(ModelError) as raised:
            peak_perf_weight(cpu_node, cpu_node)
        assert str(raised.value) == "node type 'dual-xeon-6240' has no GPUs"


class TestTitan:
    def test_classic_node(self):
        assert titan_node_charge(16, 14) == 30

    def test_zero(self):
        assert titan_node_charge(0, 0) == 0

    def test_reference_system(self, gpu_node):
        assert titan_node_charge(gpu_node.total_cores, gpu_node.total_streaming_multiprocessors) == 468

    def test_negative_counts(self):
        with pytest.raises(ValidationError):
            titan_node_charge(-1, 0)

    @pytest.mark.parametrize(
        "counts, field",
        [((1.5, 0), "cpu_cores"), ((1, 2.5), "gpu_sms"), ((True, 2), "cpu_cores"), ((-1.5, 0), "cpu_cores")],
    )
    def test_counts_must_be_integers(self, counts, field):
        with pytest.raises(ValidationError) as raised:
            titan_node_charge(*counts)
        assert str(raised.value) == f"{field} must be an integer"

    def test_additivity(self):
        for a, b, s in ((3, 5, 7), (16, 0, 14), (0, 12, 100)):
            assert titan_node_charge(a + b, s) == titan_node_charge(a, s) + titan_node_charge(b, 0)

    def test_exclusive_node_semantics(self):
        # charged for the whole node even when barely using it, GPU or not
        partition = Partition("legacy", titan_node(), node_count=4, model=get_model("titan"))
        model = get_model("titan")
        job = JobRequest.uniform(partition, 2, NodeUsage(cores_used=1), Fraction(1, 2))
        report = model.charge(job)
        assert report.total_su == 30
        assert report.per_node_fraction == (1, 1)


class TestPuhtiBu:
    def test_unit_core(self):
        assert puhti_bu(1, 0, 0, 0, 1) == 1

    def test_memory_only(self):
        assert puhti_bu(0, 10, 0, 0, 1) == 1

    def test_mixed(self):
        assert puhti_bu(4, 16, 100, 1, 2) == Fraction(662, 5)  # 132.4

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            puhti_bu(-1, 0, 0, 0, 1)

    def test_custom_rates(self):
        rates = PuhtiRates(core=2, memory_gib=0, nvme_gib=0, gpu=100)
        assert puhti_bu(3, 50, 50, 1, 1, rates) == 106

    def test_a_negative_rate_is_refused(self):
        with pytest.raises(ValidationError) as raised:
            PuhtiRates(gpu=-1)
        assert str(raised.value) == "rate 'gpu' must be nonnegative"

    def test_linearity(self):
        base = puhti_bu(4, 16, 100, 1, 3)
        assert puhti_bu(8, 32, 200, 2, 3) == 2 * base
        assert puhti_bu(4, 16, 100, 1, 6) == 2 * base


class TestPuhtiTdpEquivalence:
    def test_published_figure(self):
        assert puhti_tdp_equivalence(300, 125) == Fraction(725, 2)  # 362.5 Wh

    def test_per_core_ratio(self):
        assert puhti_tdp_core_ratio(300, 125, 20) == 58

    def test_gpu_only_share(self):
        assert puhti_tdp_equivalence(300, 125, node_share=0) == 300

    @pytest.mark.parametrize(
        "gpu_tdp, cpu_tdp, field",
        [(0, 125, "gpu_tdp_watts"), (300, 0, "cpu_tdp_watts_per_socket"), (-300, 125, "gpu_tdp_watts")],
    )
    def test_a_tdp_of_zero_or_less_is_refused(self, gpu_tdp, cpu_tdp, field):
        with pytest.raises(ValidationError) as raised:
            puhti_tdp_equivalence(gpu_tdp, cpu_tdp)
        assert str(raised.value) == f"{field} must be positive"

    def test_core_ratio_needs_a_core_per_socket(self):
        with pytest.raises(ValidationError) as raised:
            puhti_tdp_core_ratio(300, 125, cores_per_socket=0)
        assert str(raised.value) == "cores_per_socket must be at least 1"

    @pytest.mark.parametrize("cores", [2.5, True, "20"])
    def test_core_ratio_needs_an_integer_core_count(self, cores):
        with pytest.raises(ValidationError) as raised:
            puhti_tdp_core_ratio(300, 125, cores)
        assert str(raised.value) == "cores_per_socket must be an integer"

    @pytest.mark.parametrize(
        "sockets, problem", [(2.5, "an integer"), (0, "at least 1"), (-2, "at least 1"), (True, "an integer")]
    )
    def test_sockets_must_be_a_whole_count_of_at_least_one(self, sockets, problem):
        message = f"^sockets must be {problem}$"
        with pytest.raises(ValidationError, match=message):
            puhti_tdp_equivalence(300, 125, sockets=sockets)
        with pytest.raises(ValidationError, match=message):
            puhti_tdp_core_ratio(300, 125, 20, sockets=sockets)

    def test_a_negative_node_share_is_refused(self):
        with pytest.raises(ValidationError) as raised:
            puhti_tdp_equivalence(300, 125, node_share="-0.25")
        assert str(raised.value) == "node_share must be nonnegative"


class TestPuhtiModel:
    def test_charge_uses_extra_nvme(self):
        cpu = ProcessorSpec.cpu("Xeon Gold 6230", 20, 125, 1.2e12)
        gpu = ProcessorSpec.gpu("V100", 80, 300, 7e12)
        node = NodeType(
            "v100-node",
            cpus=(cpu,) * 2,
            memory_total_gib=384,
            gpus=(gpu,) * 4,
            extra_resources={"nvme_gib": 1490},
        )
        model = get_model("puhti")
        partition = Partition("shared", node, node_count=10, model=model)
        usage = NodeUsage(cores_used=4, gpus_used=1, memory_used_gib=16, extra_used={"nvme_gib": 100})
        job = JobRequest.uniform(partition, 1, usage, 2)
        report = model.charge(job)
        assert report.total_su == Fraction(662, 5)
        assert report.total_su == report.weight_used * report.walltime_hours * sum(report.per_node_fraction)

    def test_node_weight_is_full_node_rate(self, gpu_node):
        # 36 cores + 0.1*256 GiB + 60*4 GPUs, no NVMe on this node type
        assert get_model("puhti").node_weight(gpu_node) == Fraction(36) + Fraction(256, 10) + 240

    def test_zero_rates_refuse_a_job_on_another_models_partition(self, cpu_partition):
        # the partition bills under energy, so no Partition check saw the puhti rates
        job = JobRequest.uniform(cpu_partition, 1, NodeUsage(cores_used=1), 1)
        with pytest.raises(ModelError) as raised:
            PuhtiModel(PuhtiRates(0, 0, 0, 0)).charge(job)
        assert str(raised.value) == "the configured rates price a whole node at zero"

    def test_zero_rates_refuse_after_the_fit_check(self, cpu_partition):
        fits, too_big, zero = NodeUsage(cores_used=1), NodeUsage(cores_used=99), PuhtiModel(PuhtiRates(0, 0, 0, 0))
        with pytest.raises(CapacityError):  # the first node does not fit
            zero.charge(JobRequest(cpu_partition, (too_big, fits), 1))
        with pytest.raises(ModelError):  # the first node fits, so the zero bill is refused there
            zero.charge(JobRequest(cpu_partition, (fits, too_big), 1))

    def test_a_heterogeneous_jobs_fractions_are_each_nodes_share(self, gpu_node):
        model = get_model("puhti")
        partition = Partition("shared", gpu_node, node_count=4, model=model)
        usages = tuple(NodeUsage(cores_used=n, gpus_used=n % 2, memory_used_gib=n) for n in (1, 2, 3, 4))
        report = model.charge(JobRequest(partition, usages, 2))
        shares = tuple(Fraction(*model.cell_share(_cells(usage), gpu_node)) for usage in usages)
        assert report.per_node_fraction == shares

    @pytest.mark.parametrize(
        "arguments, problem",
        [
            ({"rates": None}, "rates must be a PuhtiRates, got NoneType"),
            ({"nvme_resource": 3}, "nvme_resource must be a string, got int"),
            ({"nvme_resource": ""}, "nvme_resource must be non-empty"),
        ],
        ids=["rates", "resource-type", "resource-empty"],
    )
    def test_parameters_that_could_never_bill_are_refused(self, arguments, problem):
        with pytest.raises(ValidationError) as raised:
            PuhtiModel(**arguments)
        assert str(raised.value) == problem


class TestModelRegistry:
    def test_ids(self):
        assert set(MODEL_IDS) == {"energy", "sm", "peak-perf", "titan", "puhti"}

    def test_unknown_id(self):
        with pytest.raises(ValidationError):
            get_model("flops")

    @pytest.mark.parametrize("model_id", [[], {}], ids=["list", "dict"])
    def test_an_unhashable_id_is_unknown(self, model_id):
        with pytest.raises(ValidationError) as raised:
            get_model(model_id)
        assert str(raised.value) == f"unknown charge model {model_id!r} (known: energy, peak-perf, puhti, sm, titan)"

    def test_cpu_node_weight_is_core_count_under_weight_models(self, cpu_node):
        for model_id in ("energy", "sm", "peak-perf", "titan"):
            assert get_model(model_id).node_weight(cpu_node) == 36

    def test_weight_ordering_on_reference_system(self, gpu_node):
        energy = get_model("energy").node_weight(gpu_node)
        sm = get_model("sm").node_weight(gpu_node)
        peak = get_model("peak-perf").node_weight(gpu_node)
        assert energy == 192
        assert sm == 432
        assert peak == Fraction(2328, 5)
        assert energy < sm < peak

    def test_determinism(self, gpu_node, gpu_partition):
        job = JobRequest.uniform(gpu_partition, 2, NodeUsage(cores_used=3, gpus_used=1), Fraction(7, 3))
        for model_id in MODEL_IDS:
            model = get_model(model_id)
            first = model.charge(job)
            second = model.charge(job)
            assert first == second

    def test_weight_models_share_fraction_machinery(self, gpu_partition):
        # same job, different weight: totals scale by the weight ratio alone
        job = JobRequest.uniform(gpu_partition, 3, NodeUsage(cores_used=9, memory_used_gib=10), 2)
        energy = get_model("energy").charge(job)
        sm = get_model("sm").charge(job)
        assert energy.per_node_fraction == sm.per_node_fraction
        assert sm.total_su * 192 == energy.total_su * 432
