"""Core charging engine: resource fractions, weights and job costs."""

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
    ValidationError,
    core_equivalent,
    core_fraction,
    energy_estimate_wh,
    exact,
    get_model,
    gpu_fraction,
    gpu_partition_weight,
    job_cost,
    memory_fraction,
    node_fraction,
    watt_to_su_rate,
)
from sumeter.tables import REFERENCE_CPU, REFERENCE_GPU


class TestExact:
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_is_a_validation_error(self, value):
        with pytest.raises(ValidationError, match="not a number"):
            exact(value)


class TestProcessorSpec:
    def test_cpu_constructor(self):
        cpu = ProcessorSpec.cpu("x", 18, 150, 1.5e12)
        assert cpu.cores == 18
        assert cpu.tdp_watts == 150
        assert cpu.peak_flops == Fraction(1500000000000)

    def test_rejects_nonpositive_tdp(self):
        with pytest.raises(ValidationError):
            ProcessorSpec.cpu("x", 18, 0, 1.5e12)
        with pytest.raises(ValidationError):
            ProcessorSpec.cpu("x", 18, -10, 1.5e12)

    def test_rejects_coreless_cpu_and_smless_gpu(self):
        with pytest.raises(ValidationError):
            ProcessorSpec.cpu("x", 0, 150, 1e12)
        with pytest.raises(ValidationError):
            ProcessorSpec.gpu("g", 0, 400, 1e12)

    @pytest.mark.parametrize(
        "kind, count", [("cpu", 1.5), ("cpu", "4"), ("cpu", True), ("gpu", 2.5)], ids=["1.5", "text", "bool", "sms"]
    )
    def test_counts_must_be_ints(self, kind, count):
        with pytest.raises(ValidationError, match="cores and streaming_multiprocessors must be integers"):
            getattr(ProcessorSpec, kind)("x", count, 150, 1e12)


class TestNodeType:
    def test_derived_totals(self, gpu_node):
        assert gpu_node.total_cores == 36
        assert gpu_node.gpu_count == 4
        assert gpu_node.total_streaming_multiprocessors == 432
        assert gpu_node.cpu_tdp_watts == 300
        assert gpu_node.gpu_tdp_watts == 1600
        assert gpu_node.cpu_peak_flops == Fraction(3000000000000)

    def test_requires_cpus(self):
        with pytest.raises(ValidationError):
            NodeType("bad", cpus=(), memory_total_gib=64)

    def test_rejects_mixed_kinds(self):
        with pytest.raises(ValidationError):
            NodeType("bad", cpus=(REFERENCE_GPU,), memory_total_gib=64)
        with pytest.raises(ValidationError):
            NodeType("bad", cpus=(REFERENCE_CPU,), memory_total_gib=64, gpus=(REFERENCE_CPU,))

    @pytest.mark.parametrize("extras", [{1: 5, "1": 6}, {10**5000: 5}], ids=["int-and-text", "huge"])
    def test_resource_names_must_be_strings(self, extras):
        with pytest.raises(ValidationError, match="resource name must be a string, got int"):
            NodeType("bad", cpus=(REFERENCE_CPU,), memory_total_gib=64, extra_resources=extras)


class TestCoreFraction:
    def test_full_node(self, cpu_node):
        assert core_fraction(NodeUsage(cores_used=36), cpu_node) == 1

    def test_zero_cores(self, cpu_node):
        assert core_fraction(NodeUsage(memory_used_gib=1), cpu_node) == 0

    def test_quarter(self, cpu_node):
        assert core_fraction(NodeUsage(cores_used=9), cpu_node) == Fraction(1, 4)

    def test_over_capacity(self, cpu_node):
        with pytest.raises(CapacityError):
            core_fraction(NodeUsage(cores_used=40), cpu_node)


class TestGpuFraction:
    def test_one_of_four(self, gpu_node):
        assert gpu_fraction(NodeUsage(gpus_used=1), gpu_node) == Fraction(1, 4)

    def test_full(self, gpu_node):
        assert gpu_fraction(NodeUsage(gpus_used=4), gpu_node) == 1

    def test_cpu_partition_zero(self, cpu_node):
        assert gpu_fraction(NodeUsage(cores_used=1), cpu_node) == 0

    def test_gpu_on_gpuless_node(self, cpu_node):
        with pytest.raises(CapacityError):
            gpu_fraction(NodeUsage(gpus_used=1), cpu_node)


class TestMemoryFraction:
    def test_full_memory(self, cpu_node):
        assert memory_fraction(NodeUsage(memory_used_gib=256), cpu_node) == 1

    def test_step_above_one_share(self, cpu_node):
        # per-core share is 256/36 GiB; 7.2 GiB is 1.0125 shares, so 2 are charged
        assert Fraction("7.2") / (Fraction(256) / 36) == Fraction(81, 80)
        assert memory_fraction(NodeUsage(memory_used_gib=7.2), cpu_node) == Fraction(2, 36)

    def test_smallest_step(self, cpu_node):
        assert memory_fraction(NodeUsage(memory_used_gib=1), cpu_node) == Fraction(1, 36)

    def test_zero_memory_charges_nothing(self, cpu_node):
        assert memory_fraction(NodeUsage(cores_used=1), cpu_node) == 0

    def test_over_capacity(self, cpu_node):
        with pytest.raises(CapacityError):
            memory_fraction(NodeUsage(memory_used_gib=257), cpu_node)

    def test_codomain_is_whole_shares(self, cpu_node):
        for gib in (1, 3, Fraction(81, 10), 100, 200, 256):
            fraction = memory_fraction(NodeUsage(memory_used_gib=gib), cpu_node)
            assert 0 < fraction <= 1
            assert (fraction * 36).denominator == 1


class TestCoreEquivalent:
    def test_full_memory(self, cpu_node):
        assert core_equivalent(NodeUsage(memory_used_gib=256), cpu_node) == 36

    def test_one_gib(self, cpu_node):
        assert core_equivalent(NodeUsage(memory_used_gib=1), cpu_node) == 1

    def test_exact_share_boundaries(self, cpu_node):
        share = cpu_node.memory_per_core_gib
        for k in range(1, 37):
            usage = NodeUsage(memory_used_gib=k * share)
            assert core_equivalent(usage, cpu_node) == k


class TestNodeFraction:
    def test_cores_dominate(self, gpu_node):
        usage = NodeUsage(cores_used=18, memory_used_gib=10)
        assert node_fraction(usage, gpu_node) == Fraction(1, 2)

    def test_one_core_all_memory_charges_whole_node(self, cpu_node):
        usage = NodeUsage(cores_used=1, memory_used_gib=256)
        assert node_fraction(usage, cpu_node) == 1

    def test_equal_fractions(self, gpu_node):
        usage = NodeUsage(cores_used=9, gpus_used=1, memory_used_gib=64)
        assert node_fraction(usage, gpu_node) == Fraction(1, 4)

    def test_extra_resource_feeds_max(self):
        node = NodeType(
            "nvme-node",
            cpus=(REFERENCE_CPU,) * 2,
            memory_total_gib=256,
            extra_resources={"nvme_gib": 1000},
        )
        usage = NodeUsage(cores_used=1, extra_used={"nvme_gib": 750})
        assert node_fraction(usage, node) == Fraction(3, 4)
        with pytest.raises(CapacityError):
            node_fraction(NodeUsage(cores_used=1, extra_used={"nvme_gib": 1001}), node)
        with pytest.raises(CapacityError):
            node_fraction(NodeUsage(cores_used=1, extra_used={"ssd_gib": 10}), node)

    def test_extra_beyond_float_range_is_a_capacity_error(self):
        node = NodeType("big", cpus=(REFERENCE_CPU,), memory_total_gib=1, extra_resources={"nvme_gib": 10**400})
        message = f"{10**401} of 'nvme_gib' requested but node type 'big' has {10**400}"
        with pytest.raises(CapacityError) as excinfo:
            node_fraction(NodeUsage(cores_used=1, extra_used={"nvme_gib": 10**401}), node)
        assert str(excinfo.value) == message


class TestWattRate:
    def test_reference_cpu(self):
        assert watt_to_su_rate(ProcessorSpec.cpu("x", 18, 150, 1e12)) == Fraction(3, 25)

    def test_unit_ratio(self):
        assert watt_to_su_rate(ProcessorSpec.cpu("x", 150, 150, 1e12)) == 1

    def test_per_node_equivalent(self):
        # the dual-socket node as one 36-core, 300 W package: same rate
        assert watt_to_su_rate(ProcessorSpec.cpu("x", 36, 300, 1e12)) == Fraction(3, 25)

    def test_rejects_gpu(self):
        with pytest.raises(ValidationError):
            watt_to_su_rate(REFERENCE_GPU)


class TestGpuPartitionWeight:
    def test_reference_node(self, gpu_node):
        assert gpu_partition_weight(gpu_node) == 192

    def test_equal_tdp_gives_core_count(self):
        cpu = ProcessorSpec.cpu("c", 10, 400, 1e12)
        gpu = ProcessorSpec.gpu("g", 10, 400, 1e12)
        node = NodeType("n", cpus=(cpu,), memory_total_gib=64, gpus=(gpu,))
        assert gpu_partition_weight(node) == 10

    def test_v100_node_under_tdp_model(self):
        cpu = ProcessorSpec.cpu("Xeon Gold 6230", 20, 125, 1.2e12)
        gpu = ProcessorSpec.gpu("V100", 80, 300, 7e12)
        node = NodeType("v100-node", cpus=(cpu,) * 2, memory_total_gib=384, gpus=(gpu,) * 4)
        assert gpu_partition_weight(node) == 192  # 1200/250 * 40

    def test_gpuless_node_is_a_model_error(self, cpu_node):
        with pytest.raises(ModelError):
            gpu_partition_weight(cpu_node)


class TestPartition:
    def test_cpu_weight_is_core_count(self, cpu_node):
        assert Partition("cpu", cpu_node).weight == 36

    def test_gpu_weight_is_tdp_ratio(self, gpu_node):
        assert Partition("gpu", gpu_node).weight == 192

    def test_explicit_weight_kept_exact(self, gpu_node):
        partition = Partition("gpu", gpu_node, model=get_model("peak-perf"))
        assert partition.weight == Fraction(2328, 5)

    @pytest.mark.parametrize("node_count", [1.5, True])
    def test_node_count_must_be_an_int(self, cpu_node, node_count):
        with pytest.raises(ValidationError, match="node_count must be an integer"):
            Partition("cpu", cpu_node, node_count=node_count)


class TestCounts:
    @pytest.mark.parametrize("counts", [{"cores_used": 1.5}, {"cores_used": True}, {"gpus_used": "2"}])
    def test_usage_counts_must_be_ints(self, counts):
        with pytest.raises(ValidationError, match="core and GPU counts must be integers"):
            NodeUsage(**counts)

    @pytest.mark.parametrize("nodes", [1.5, True])
    def test_uniform_node_count_must_be_an_int(self, cpu_partition, nodes):
        with pytest.raises(ValidationError, match="nodes must be an integer"):
            JobRequest.uniform(cpu_partition, nodes, NodeUsage(cores_used=1), 1)


class TestJobCost:
    def test_one_core_hour_is_one_su(self, cpu_partition):
        job = JobRequest.uniform(cpu_partition, 1, NodeUsage(cores_used=1, memory_used_gib=2), 1)
        report = job_cost(job)
        assert report.total_su == 1
        assert report.weight_used == 36

    def test_41_full_cpu_nodes(self, cpu_partition, full_node_usage):
        job = JobRequest.uniform(cpu_partition, 41, full_node_usage, 1)
        assert job_cost(job).total_su == 1476

    def test_full_gpu_node(self, gpu_partition):
        job = JobRequest.uniform(gpu_partition, 1, NodeUsage(gpus_used=4), 1)
        assert job_cost(job).total_su == 192

    def test_report_identity(self, gpu_partition):
        usages = (NodeUsage(cores_used=9), NodeUsage(gpus_used=2, memory_used_gib=100))
        job = JobRequest(gpu_partition, usages, Fraction(3, 2))
        report = job_cost(job)
        assert report.total_su == report.weight_used * report.walltime_hours * sum(report.per_node_fraction)
        assert len(report.per_node_fraction) == 2

    def test_negative_walltime_rejected(self, cpu_partition):
        with pytest.raises(ValidationError):
            JobRequest.uniform(cpu_partition, 1, NodeUsage(cores_used=1), -1)

    def test_zero_walltime_costs_nothing(self, cpu_partition):
        job = JobRequest.uniform(cpu_partition, 1, NodeUsage(cores_used=1), 0)
        assert job_cost(job).total_su == 0

    @pytest.mark.parametrize("nodes", [0, -1])
    def test_uniform_job_needs_a_node(self, cpu_partition, nodes):
        with pytest.raises(ValidationError, match="a job must span at least one node"):
            JobRequest.uniform(cpu_partition, nodes, NodeUsage(cores_used=1), 1)

    def test_more_nodes_than_partition_has(self, cpu_partition):
        with pytest.raises(CapacityError):
            JobRequest.uniform(cpu_partition, 1001, NodeUsage(cores_used=1), 1)

    def test_energy_estimate(self, gpu_partition, gpu_node):
        job = JobRequest.uniform(gpu_partition, 1, NodeUsage(cores_used=18, gpus_used=2), 2)
        # half the CPU TDP plus half the GPU TDP, for two hours
        assert energy_estimate_wh(job.per_node_usage, gpu_node, job.walltime_hours) == (150 + 800) * 2


class TestNodeUsageValidation:
    def test_requires_a_positive_quantity(self):
        with pytest.raises(ValidationError):
            NodeUsage()

    def test_rejects_negative_quantities(self):
        with pytest.raises(ValidationError):
            NodeUsage(cores_used=-1)
        with pytest.raises(ValidationError):
            NodeUsage(memory_used_gib=-2)

    def test_extra_names_must_be_strings(self):
        with pytest.raises(ValidationError, match="usage: resource name must be a string, got int"):
            NodeUsage(cores_used=1, extra_used={1: 1, "1": 2})
