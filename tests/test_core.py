"""Core charging engine: resource fractions, weights and job costs."""

import io
import re
from fractions import Fraction
from pathlib import Path

import pytest

from sumeter import (
    ApplicationBenchmark,
    CapacityError,
    JobRecord,
    JobRequest,
    MODEL_IDS,
    ModelError,
    NodeType,
    NodeUsage,
    Partition,
    ProcessorKind,
    ProcessorSpec,
    PuhtiModel,
    PuhtiRates,
    SystemConfig,
    ValidationError,
    aggregate,
    build_table,
    builtin_config,
    charge_record,
    core_equivalent,
    crossover_sweep,
    decide_and_energy,
    decision_threshold,
    efficiency_band,
    embedded_fixture,
    energy_estimate_wh,
    energy_threshold,
    exact,
    get_model,
    gpu_partition_weight,
    ingest_jobs,
    iter_jobs,
    job_cost,
    load_config,
    memory_fraction,
    peak_perf_weight,
    printed_ratio_matches,
    puhti_bu,
    puhti_tdp_core_ratio,
    puhti_tdp_equivalence,
    reference_cpu_node,
    reference_gpu_node,
    sm_based_weight,
    speedup_from_time,
    titan_node_charge,
    watt_to_su_rate,
    write_sweep_csv,
)
from sumeter.analysis import sweep_bounds
from sumeter.core import MAX_NODE_COUNT, node_share, parse_real
from sumeter.ingest import Ledger
from sumeter.tables import REFERENCE_CPU, REFERENCE_GPU


class TestExact:
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_is_a_validation_error(self, value):
        with pytest.raises(ValidationError, match="not a number"):
            exact(value)

    def test_a_bool_is_not_a_number(self):
        with pytest.raises(ValidationError) as raised:
            exact(True)
        assert str(raised.value) == "not a number: True"

    @pytest.mark.parametrize(
        "build",
        [
            lambda: NodeUsage(cores_used=1, memory_used_gib=True),
            lambda: JobRequest.uniform(Partition("p", CPU_NODE), 1, NodeUsage(cores_used=1), True),
            lambda: ProcessorSpec.cpu("x", 4, True, True),
            lambda: PuhtiRates(core=True),
        ],
        ids=["memory_used_gib", "walltime_hours", "tdp_watts", "rate"],
    )
    def test_a_bool_amount_builds_nothing(self, build):
        """As `parse_config` refuses `true` in these fields."""
        with pytest.raises(ValidationError, match="^not a number: True$"):
            build()

    @pytest.mark.parametrize("value, kind", [(5, "int"), (None, "NoneType"), (b"1.5", "bytes")])
    def test_number_text_must_be_a_string(self, value, kind):
        with pytest.raises(ValidationError) as raised:
            parse_real(value)
        assert str(raised.value) == f"number text must be a string, got {kind}"


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

    def test_name_must_be_a_string(self):
        with pytest.raises(ValidationError) as raised:
            ProcessorSpec.cpu(5, 4, 100, 1e12)
        assert str(raised.value) == "processor name must be a string, got int"

    def test_rejects_coreless_cpu_and_smless_gpu(self):
        with pytest.raises(ValidationError):
            ProcessorSpec.cpu("x", 0, 150, 1e12)
        with pytest.raises(ValidationError):
            ProcessorSpec.gpu("g", 0, 400, 1e12)

    @pytest.mark.parametrize(
        "kind, cores, sms, message",
        [
            (ProcessorKind.CPU, 4, 1, "CPU 'x' must not declare streaming multiprocessors"),
            (ProcessorKind.GPU, 2, 80, "GPU 'x' must not declare CPU cores"),
        ],
        ids=["cpu-with-sms", "gpu-with-cores"],
    )
    def test_a_processor_declares_only_its_own_units(self, kind, cores, sms, message):
        with pytest.raises(ValidationError) as raised:
            ProcessorSpec("x", kind, 150, 1e12, cores=cores, streaming_multiprocessors=sms)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "kind, units",
        [("cpu", {"cores": 4}), ("gpu", {"streaming_multiprocessors": 80})],
        ids=["cpu-text", "gpu-text"],
    )
    def test_kind_must_be_a_processor_kind(self, kind, units):
        # text that spells a kind is neither read as a GPU nor accepted as its own kind
        message = f"processor 'x': kind must be ProcessorKind.CPU or ProcessorKind.GPU, got {kind!r}"
        with pytest.raises(ValidationError) as raised:
            ProcessorSpec("x", kind, 150, 1e12, **units)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "kind, count, field",
        [("cpu", 1.5, "cores"), ("cpu", "4", "cores"), ("cpu", True, "cores"),
         ("gpu", 2.5, "streaming_multiprocessors")],
        ids=["1.5", "text", "bool", "sms"],
    )
    def test_counts_must_be_ints(self, kind, count, field):
        with pytest.raises(ValidationError, match=f"^processor 'x': {field} must be an integer$"):
            getattr(ProcessorSpec, kind)("x", count, 150, 1e12)


class TestNodeType:
    def test_name_must_be_a_string(self, cpu_node):
        with pytest.raises(ValidationError) as raised:
            NodeType(None, cpu_node.cpus, 10)
        assert str(raised.value) == "node type name must be a string, got NoneType"

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

    @pytest.mark.parametrize(
        "extras, message",
        [
            ({"": 5}, "node type 'bad': resource name must be non-empty"),
            ([("nvme_gib", 5), ("nvme_gib", 6)], "node type 'bad': duplicate resource 'nvme_gib'"),
        ],
        ids=["empty", "duplicate"],
    )
    def test_resource_names_must_be_non_empty_and_unique(self, extras, message):
        with pytest.raises(ValidationError) as raised:
            NodeType("bad", cpus=(REFERENCE_CPU,), memory_total_gib=64, extra_resources=extras)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "extras", [[("a", 1, 2)], [("a",)], [5], [(10**5000,)], 5], ids=["triple", "single", "int", "huge", "container"]
    )
    def test_resources_come_in_pairs(self, extras):
        with pytest.raises(ValidationError) as raised:
            NodeType("bad", cpus=(REFERENCE_CPU,), memory_total_gib=64, extra_resources=extras)
        assert str(raised.value) == "node type 'bad': expected (name, amount) pairs"

    @pytest.mark.parametrize(
        "processors, field",
        [({"cpus": 5}, "cpus"), ({"cpus": (REFERENCE_CPU,), "gpus": 5}, "gpus"), ({"cpus": [5]}, "cpus")],
        ids=["cpus", "gpus", "entry"],
    )
    def test_processors_come_as_a_sequence_of_specs(self, processors, field):
        with pytest.raises(ValidationError) as raised:
            NodeType("bad", memory_total_gib=1, **processors)
        assert str(raised.value) == f"node type 'bad': {field} must be a sequence of ProcessorSpec values, got int"


def one_node_energy(usage, node):
    """One hour of `usage` on one `node`, in Wh: cores / C of the CPU TDP plus GPUs / G of the GPU TDP."""
    return energy_estimate_wh(JobRequest(Partition("p", node), [usage], 1))


class TestCoreFraction:
    """The core term of the energy estimate: the cores used over the node's, of the CPU TDP."""

    def test_full_node(self, cpu_node):
        assert one_node_energy(NodeUsage(cores_used=36), cpu_node) == cpu_node.cpu_tdp_watts

    def test_zero_cores(self, cpu_node):
        assert one_node_energy(NodeUsage(memory_used_gib=1), cpu_node) == 0

    def test_quarter(self, cpu_node):
        assert one_node_energy(NodeUsage(cores_used=9), cpu_node) == cpu_node.cpu_tdp_watts / 4

    def test_over_capacity(self, cpu_node):
        with pytest.raises(CapacityError):
            one_node_energy(NodeUsage(cores_used=40), cpu_node)


class TestGpuFraction:
    """The GPU term of the energy estimate: the GPUs used over the node's, of the GPU TDP."""

    def test_one_of_four(self, gpu_node):
        assert one_node_energy(NodeUsage(gpus_used=1), gpu_node) == gpu_node.gpu_tdp_watts / 4

    def test_full(self, gpu_node):
        assert one_node_energy(NodeUsage(gpus_used=4), gpu_node) == gpu_node.gpu_tdp_watts

    def test_cpu_partition_zero(self, cpu_node):
        # a GPU-less node adds no GPU term
        assert one_node_energy(NodeUsage(cores_used=1), cpu_node) == cpu_node.cpu_tdp_watts / 36

    def test_gpu_on_gpuless_node(self, cpu_node):
        with pytest.raises(CapacityError):
            one_node_energy(NodeUsage(gpus_used=1), cpu_node)

    def test_refuses_cores_the_node_lacks(self, gpu_node):
        # with the message a charge gives
        with pytest.raises(CapacityError) as raised:
            one_node_energy(NodeUsage(cores_used=99), gpu_node)
        assert str(raised.value) == "99 cores requested but node type 'quad-a100' has 36"


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
        assert Fraction(*node_share(usage, gpu_node)) == Fraction(1, 2)

    def test_one_core_all_memory_charges_whole_node(self, cpu_node):
        usage = NodeUsage(cores_used=1, memory_used_gib=256)
        assert Fraction(*node_share(usage, cpu_node)) == 1

    def test_equal_fractions(self, gpu_node):
        usage = NodeUsage(cores_used=9, gpus_used=1, memory_used_gib=64)
        assert Fraction(*node_share(usage, gpu_node)) == Fraction(1, 4)

    def test_extra_resource_feeds_max(self):
        node = NodeType(
            "nvme-node",
            cpus=(REFERENCE_CPU,) * 2,
            memory_total_gib=256,
            extra_resources={"nvme_gib": 1000},
        )
        usage = NodeUsage(cores_used=1, extra_used={"nvme_gib": 750})
        assert Fraction(*node_share(usage, node)) == Fraction(3, 4)
        with pytest.raises(CapacityError):
            node_share(NodeUsage(cores_used=1, extra_used={"nvme_gib": 1001}), node)
        with pytest.raises(CapacityError):
            node_share(NodeUsage(cores_used=1, extra_used={"ssd_gib": 10}), node)

    def test_extra_beyond_float_range_is_a_capacity_error(self):
        node = NodeType("big", cpus=(REFERENCE_CPU,), memory_total_gib=1, extra_resources={"nvme_gib": 10**400})
        message = f"{10**401} of 'nvme_gib' requested but node type 'big' has {10**400}"
        with pytest.raises(CapacityError) as excinfo:
            node_share(NodeUsage(cores_used=1, extra_used={"nvme_gib": 10**401}), node)
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

    def test_node_count_may_be_the_bound(self, cpu_node):
        assert Partition("cpu", cpu_node, node_count=10**6).node_count == MAX_NODE_COUNT

    def test_name_must_be_a_string(self, cpu_node):
        with pytest.raises(ValidationError) as raised:
            Partition(None, cpu_node)
        assert str(raised.value) == "partition name must be a string, got NoneType"

    @pytest.mark.parametrize(
        "name, message",
        [
            ("", "partition name: must be non-empty"),
            ("ALL", "partition name: 'ALL' is reserved for the project total"),
            (" x ", "partition name: must not start or end with whitespace, got ' x '"),
            ("x\t", "partition name: must not start or end with whitespace, got 'x\\t'"),
        ],
    )
    def test_a_name_the_ledger_cannot_print_apart_is_refused(self, cpu_node, name, message):
        # ingest strips a jobs row's partition cell and prints each project's total as partition ALL
        with pytest.raises(ValidationError) as raised:
            Partition(name, cpu_node)
        assert str(raised.value) == message

    def test_node_type_must_be_a_node_type(self):
        with pytest.raises(ValidationError) as raised:
            Partition("p", None)
        assert str(raised.value) == "partition 'p': node_type must be a NodeType, got NoneType"

    def test_model_must_be_a_charge_model(self, cpu_node):
        with pytest.raises(ValidationError) as raised:
            Partition("p", cpu_node, model="energy")
        assert str(raised.value) == "partition 'p': model must be a ChargeModel, got str"

    def test_a_model_pricing_the_node_at_zero_is_refused(self, cpu_node):
        with pytest.raises(ValidationError) as raised:
            Partition("free", cpu_node, model=PuhtiModel(PuhtiRates(0, 0, 0, 0)))
        assert str(raised.value) == "partition 'free': weight must be positive"


class TestCounts:
    @pytest.mark.parametrize("counts", [{"cores_used": 1.5}, {"cores_used": True}, {"gpus_used": "2"}])
    def test_usage_counts_must_be_ints(self, counts):
        with pytest.raises(ValidationError, match="core and GPU counts must be integers"):
            NodeUsage(**counts)

    @pytest.mark.parametrize("nodes", [1.5, True])
    def test_uniform_node_count_must_be_an_int(self, cpu_partition, nodes):
        with pytest.raises(ValidationError, match="nodes must be an integer"):
            JobRequest.uniform(cpu_partition, nodes, NodeUsage(cores_used=1), 1)

    @pytest.mark.parametrize(
        "build, got",
        [
            (lambda partition: JobRequest(partition, [1], 1), "int"),
            (lambda partition: JobRequest(partition, [NodeUsage(cores_used=1), "x"], 1), "str"),
            (lambda partition: JobRequest.uniform(partition, 1, None, 1), "NoneType"),
        ],
        ids=["int", "second-node", "uniform"],
    )
    def test_every_node_usage_must_be_a_node_usage(self, cpu_partition, build, got):
        with pytest.raises(ValidationError) as raised:
            build(cpu_partition)
        assert str(raised.value) == f"per-node usages must be a sequence of NodeUsage values, got {got}"

    @pytest.mark.parametrize(
        "build",
        [
            lambda: JobRequest(None, [NodeUsage(cores_used=1)], 1),
            lambda: JobRequest.uniform(None, 1, NodeUsage(cores_used=1), 1),
        ],
        ids=["job", "uniform"],
    )
    def test_a_job_needs_a_partition(self, build):
        with pytest.raises(ValidationError) as raised:
            build()
        assert str(raised.value) == "a job's partition must be a Partition, got NoneType"


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
        assert energy_estimate_wh(job) == (150 + 800) * 2

    def test_energy_estimate_refuses_memory_the_node_lacks(self, cpu_node):
        with pytest.raises(CapacityError) as raised:
            energy_estimate_wh(JobRequest(Partition("p", cpu_node), [NodeUsage(cores_used=1, memory_used_gib=10**6)], 1))
        assert str(raised.value) == "1000000 GiB requested but node type 'dual-xeon-6240' has 256 GiB"


class TestNodeUsageValidation:
    def test_requires_a_positive_quantity(self):
        with pytest.raises(ValidationError):
            NodeUsage()

    def test_rejects_negative_quantities(self):
        with pytest.raises(ValidationError):
            NodeUsage(cores_used=-1)
        for memory in (-2, -1, Fraction(-1, 2)):  # -1 and -1/2 sit at the sign's boundary
            with pytest.raises(ValidationError):
                NodeUsage(memory_used_gib=memory)

    def test_rejects_a_negative_extra_amount(self):
        with pytest.raises(ValidationError) as raised:
            NodeUsage(cores_used=1, extra_used={"nvme_gib": -1})
        assert str(raised.value) == "extra resource amounts must be nonnegative"

    def test_extra_names_must_be_strings(self):
        with pytest.raises(ValidationError, match="usage: resource name must be a string, got int"):
            NodeUsage(cores_used=1, extra_used={1: 1, "1": 2})

    @pytest.mark.parametrize("extras", ["ab", [("nvme_gib", 1, 2)], 5], ids=["text", "triple", "container"])
    def test_extras_come_in_pairs(self, extras):
        with pytest.raises(ValidationError) as raised:
            NodeUsage(cores_used=1, extra_used=extras)
        assert str(raised.value) == "usage: expected (name, amount) pairs"


README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_library_example_gives_the_values_in_its_comments():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    example = next(block for block in blocks if "job_cost(job)" in block)
    namespace = {}
    exec(example, namespace)
    shown = []
    for line in example.splitlines():
        expression, comment = line.partition("  # ")[::2]
        if comment and "=" not in expression:  # a value the comment states
            value = eval(expression, namespace)
            assert comment.startswith(repr(value)), line
            shown.append(value)
    assert shown == [Fraction(432), Fraction(324), (Fraction(1, 4), Fraction(1, 4)), Fraction(1425)]


CPU_NODE, GPU_NODE = reference_cpu_node(), reference_gpu_node()
RECORD = JobRecord("j1", "p", "cpu", (NodeUsage(cores_used=1),), Fraction(1), Fraction(1))
ENERGY = get_model("energy")
APPS = (ApplicationBenchmark("FUN3D", 41),)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: job_cost(None), "job must be a JobRequest, got NoneType"),
        (lambda: energy_estimate_wh(None), "job must be a JobRequest, got NoneType"),
        (lambda: charge_record(None, builtin_config()), "record must be a JobRecord, got NoneType"),
        (lambda: charge_record(RECORD, None), "config must be a SystemConfig, got NoneType"),
        (lambda: memory_fraction(None, CPU_NODE), "usage must be a NodeUsage, got NoneType"),
        (lambda: memory_fraction(NodeUsage(cores_used=1), None), "node must be a NodeType, got NoneType"),
        (lambda: core_equivalent(None, CPU_NODE), "usage must be a NodeUsage, got NoneType"),
        (lambda: core_equivalent(NodeUsage(cores_used=1), None), "node must be a NodeType, got NoneType"),
        (lambda: gpu_partition_weight(None), "node must be a NodeType, got NoneType"),
        (lambda: sm_based_weight(None), "node must be a NodeType, got NoneType"),
        (lambda: peak_perf_weight(GPU_NODE, None), "reference_cpu_node must be a NodeType, got NoneType"),
        (lambda: watt_to_su_rate(None), "cpu must be a ProcessorSpec, got NoneType"),
        (lambda: decision_threshold(get_model("energy"), None, GPU_NODE), "cpu_node must be a NodeType, got NoneType"),
        (lambda: decision_threshold("energy", CPU_NODE, GPU_NODE), "model must be a ChargeModel, got str"),
        (lambda: puhti_bu(1, 1, 1, 1, 1, rates=None), "rates must be a PuhtiRates, got NoneType"),
        (lambda: energy_threshold(CPU_NODE, None), "gpu_node must be a NodeType, got NoneType"),
        (lambda: decide_and_energy(2, None, CPU_NODE, GPU_NODE), "model must be a ChargeModel, got NoneType"),
        (lambda: decide_and_energy(2, ENERGY, CPU_NODE, None), "gpu_node must be a NodeType, got NoneType"),
        (lambda: crossover_sweep(None, CPU_NODE, GPU_NODE), "model must be a ChargeModel, got NoneType"),
        (lambda: crossover_sweep(ENERGY, None, GPU_NODE), "cpu_node must be a NodeType, got NoneType"),
        (lambda: write_sweep_csv([ENERGY], CPU_NODE, GPU_NODE, None),
         "out must be a text stream with a write method, got NoneType"),
        (lambda: build_table(None, APPS, CPU_NODE, GPU_NODE), "model must be a ChargeModel, got NoneType"),
        (lambda: list(iter_jobs("jobs.csv", None)), "config must be a SystemConfig, got NoneType"),
        (lambda: ingest_jobs("jobs.csv", {"partitions": []}), "config must be a SystemConfig, got dict"),
        (lambda: list(iter_jobs(None, builtin_config())), "jobs file path must be a str or a PathLike, got NoneType"),
        # an int path would be read, and closed, as a file descriptor
        (lambda: list(iter_jobs("jobs.csv", builtin_config(), 2**20)),
         "details file path must be a str or a PathLike, got int"),
        (lambda: load_config(None), "config path must be a str or a PathLike, got NoneType"),
        (lambda: aggregate([None], builtin_config()), "each item must be a JobRecord or a RowError, got NoneType"),
        (lambda: Ledger(None), "items must be an iterable, got NoneType"),
        # a ledger sums records and counts row errors; the tuples `sumeter ingest` sums are private to it
        (lambda: Ledger([("j1", "p")]), "each item must be a JobRecord or a RowError, got tuple"),
        (lambda: Ledger([("j1", "p", "cpu", None, (1, 0))]), "each item must be a JobRecord or a RowError, got tuple"),
        (lambda: aggregate([("j1", "p", "cpu", None, (1, 2))], builtin_config()),
         "each item must be a JobRecord or a RowError, got tuple"),
        (lambda: Ledger([JobRecord("j1", "p", "cpu", (), 1, "x")]), "not a number: 'x'"),
        (lambda: aggregate([JobRecord("j1", "p", "cpu", (), 1, True)], builtin_config()), "not a number: True"),
        # a project or partition is a ledger key, sorted against the others and printed as text
        (lambda: aggregate([JobRecord("j1", 1, "cpu", (), 1, 1)], builtin_config()),
         "a record's project must be a string, got int"),
        (lambda: Ledger([JobRecord("j1", ["p"], "cpu", (), 1, 1)]), "a record's project must be a string, got list"),
        (lambda: Ledger([JobRecord("j1", "p", 1, (), 1, 1)]), "a record's partition must be a string, got int"),
    ],
    ids=[
        "job_cost",
        "energy_estimate_wh",
        "charge_record-record",
        "charge_record-config",
        "memory_fraction-usage",
        "memory_fraction-node",
        "core_equivalent-usage",
        "core_equivalent-node",
        "gpu_partition_weight",
        "sm_based_weight",
        "peak_perf_weight",
        "watt_to_su_rate",
        "decision_threshold-node",
        "decision_threshold-model",
        "puhti_bu",
        "energy_threshold",
        "decide_and_energy-model",
        "decide_and_energy-node",
        "crossover_sweep-model",
        "crossover_sweep-node",
        "write_sweep_csv-out",
        "build_table-model",
        "iter_jobs-config",
        "ingest_jobs-config",
        "iter_jobs-path",
        "iter_jobs-details-fd",
        "load_config-path",
        "aggregate-record",
        "Ledger-items",
        "Ledger-pair",
        "Ledger-zero-denominator",
        "aggregate-priced-row",
        "Ledger-text-total",
        "aggregate-bool-total",
        "aggregate-int-project",
        "Ledger-list-project",
        "Ledger-int-partition",
    ],
)
def test_an_argument_of_the_wrong_type_is_refused_by_its_expected_type(call, message):
    with pytest.raises(ValidationError) as raised:
        call()
    assert str(raised.value) == message


def sweep_text(models) -> str:
    """The sweep CSV of `models`; a refused call has written nothing."""
    out = io.StringIO()
    try:
        write_sweep_csv(models, CPU_NODE, GPU_NODE, out, steps=5)
    except ValidationError:
        assert out.getvalue() == ""
        raise
    return out.getvalue()


# Each argument that takes many values: how to call with `values`, what it is called, the type of its entries
# and the entries of a valid call.
SEQUENCE_ARGUMENTS = [
    pytest.param(lambda values: NodeType("n", cpus=values, memory_total_gib=64),
                 "node type 'n': cpus", "ProcessorSpec", (REFERENCE_CPU, REFERENCE_CPU), id="NodeType-cpus"),
    pytest.param(lambda values: NodeType("n", cpus=(REFERENCE_CPU,), gpus=values, memory_total_gib=64),
                 "node type 'n': gpus", "ProcessorSpec", (REFERENCE_GPU,) * 4, id="NodeType-gpus"),
    pytest.param(lambda values: JobRequest(Partition("p", CPU_NODE, 2), values, 1),
                 "per-node usages", "NodeUsage", (NodeUsage(cores_used=1), NodeUsage(cores_used=2)), id="JobRequest"),
    pytest.param(SystemConfig, "partitions", "Partition", builtin_config().partitions, id="SystemConfig"),
    pytest.param(lambda values: efficiency_band(values, CPU_NODE, GPU_NODE),
                 "models", "ChargeModel", (ENERGY, get_model("sm")), id="efficiency_band"),
    pytest.param(sweep_text, "models", "ChargeModel", tuple(map(get_model, MODEL_IDS)), id="write_sweep_csv"),
    pytest.param(lambda values: build_table(ENERGY, values, CPU_NODE, GPU_NODE),
                 "apps", "ApplicationBenchmark", embedded_fixture()[2], id="build_table"),
]


@pytest.mark.parametrize("call, what, kind, values", SEQUENCE_ARGUMENTS)
def test_many_values_are_refused_by_one_rule(call, what, kind, values):
    """A value that is not iterable, a lone value in place of the sequence, or an entry of another type."""
    lone = values[0]
    arguments = [(5, "int"), (None, "NoneType"), (lone, type(lone).__name__)]
    for argument, got in [*arguments, ((*values, "x"), "str"), ((*values, None), "NoneType")]:
        with pytest.raises(ValidationError) as raised:
            call(argument)
        assert str(raised.value) == f"{what} must be a sequence of {kind} values, got {got}"


@pytest.mark.parametrize("call, what, kind, values", SEQUENCE_ARGUMENTS)
def test_many_values_may_come_from_a_generator(call, what, kind, values):
    """Read once into a tuple, so no later read, such as a sweep per model, finds the generator spent."""
    assert call(value for value in values) == call(values) == call(list(values))


def cpu(cores=4, tdp_watts=150, peak_flops=1e12, name="x"):
    return ProcessorSpec.cpu(name, cores, tdp_watts, peak_flops)


USAGE = NodeUsage(cores_used=1)


@pytest.mark.parametrize(
    "call, message",
    [
        # counts: an int, and a bool is not one
        pytest.param(lambda: cpu(cores=True), "processor 'x': cores must be an integer", id="ProcessorSpec-cores"),
        pytest.param(lambda: ProcessorSpec.gpu("g", True, 300, 1e13),
                     "processor 'g': streaming_multiprocessors must be an integer",
                     id="ProcessorSpec-sms"),
        pytest.param(lambda: cpu(cores=0), "CPU 'x' needs at least one core", id="ProcessorSpec-cores-range"),
        pytest.param(lambda: Partition("p", CPU_NODE, True), "partition 'p': node_count must be an integer",
                     id="Partition-node_count"),
        pytest.param(lambda: Partition("p", CPU_NODE, 0), "partition 'p': node_count must be at least 1",
                     id="Partition-node_count-range"),
        pytest.param(lambda: Partition("p", CPU_NODE, MAX_NODE_COUNT + 1),
                     "partition 'p': node_count must be at most 1000000", id="Partition-node_count-bound"),
        pytest.param(lambda: JobRequest.uniform(Partition("p", CPU_NODE), True, USAGE, 1), "nodes must be an integer",
                     id="uniform-nodes"),
        pytest.param(lambda: JobRequest.uniform(Partition("p", CPU_NODE), 0, USAGE, 1),
                     "a job must span at least one node", id="uniform-nodes-range"),
        pytest.param(lambda: titan_node_charge(True, 0), "cpu_cores must be an integer", id="titan-cpu_cores"),
        pytest.param(lambda: titan_node_charge(0, -1), "gpu_sms must be at least 0", id="titan-gpu_sms-range"),
        pytest.param(lambda: puhti_tdp_equivalence(300, 125, True), "sockets must be an integer", id="tdp-sockets"),
        pytest.param(lambda: puhti_tdp_equivalence(300, 125, 0), "sockets must be at least 1", id="tdp-sockets-range"),
        pytest.param(lambda: puhti_tdp_core_ratio(300, 125, True), "cores_per_socket must be an integer",
                     id="core_ratio-cores_per_socket"),
        pytest.param(lambda: puhti_tdp_core_ratio(300, 125, 0), "cores_per_socket must be at least 1",
                     id="core_ratio-cores_per_socket-range"),
        pytest.param(lambda: ApplicationBenchmark("A", True), "benchmark 'A': perf_ratio must be an integer",
                     id="ApplicationBenchmark"),
        pytest.param(lambda: ApplicationBenchmark("A", 0), "benchmark 'A': perf_ratio must be at least 1",
                     id="ApplicationBenchmark-range"),
        pytest.param(lambda: sweep_bounds(1, 2, True), "sweep steps must be an integer", id="sweep-steps"),
        pytest.param(lambda: sweep_bounds(1, 2, 1), "need at least 2 sweep steps", id="sweep-steps-range"),
        # names: a string
        pytest.param(lambda: cpu(name=True), "processor name must be a string, got bool", id="ProcessorSpec-name"),
        pytest.param(lambda: NodeType(True, [cpu()], 10),
                     "node type name must be a string, got bool", id="NodeType-name"),
        pytest.param(lambda: NodeType("n", [cpu()], 10, extra_resources={True: 1}),
                     "node type 'n': resource name must be a string, got bool",
                     id="NodeType-resource"),
        pytest.param(lambda: NodeUsage(cores_used=1, extra_used=[(True, 1)]),
                     "usage: resource name must be a string, got bool",
                     id="NodeUsage-resource"),
        pytest.param(lambda: ApplicationBenchmark(None, 3), "benchmark name must be a string, got NoneType",
                     id="ApplicationBenchmark-name"),
        pytest.param(lambda: Partition(True, CPU_NODE),
                     "partition name must be a string, got bool", id="Partition-name"),
        pytest.param(lambda: PuhtiModel(nvme_resource=True),
                     "nvme_resource must be a string, got bool", id="PuhtiModel-nvme"),
        pytest.param(lambda: parse_real(True), "number text must be a string, got bool", id="parse_real"),
        pytest.param(lambda: printed_ratio_matches(1, True), "printed ratio must be a string, got bool",
                     id="printed_ratio_matches"),
        # built values: their type
        pytest.param(lambda: PuhtiModel(rates=True), "rates must be a PuhtiRates, got bool", id="PuhtiModel-rates"),
        pytest.param(lambda: JobRequest.uniform(True, 1, USAGE, 1), "a job's partition must be a Partition, got bool",
                     id="uniform-partition"),
        # amounts: read exactly, then the sign
        pytest.param(lambda: cpu(tdp_watts=True), "not a number: True", id="ProcessorSpec-tdp"),
        pytest.param(lambda: cpu(tdp_watts=0),
                     "processor 'x': tdp_watts must be positive", id="ProcessorSpec-tdp-range"),
        pytest.param(lambda: cpu(peak_flops=0),
                     "processor 'x': peak_flops must be positive", id="ProcessorSpec-peak-range"),
        pytest.param(lambda: NodeType("n", [cpu()], True), "not a number: True", id="NodeType-memory"),
        pytest.param(lambda: NodeType("n", [cpu()], 0), "node type 'n': memory_total_gib must be positive",
                     id="NodeType-memory-range"),
        pytest.param(lambda: NodeType("n", [cpu()], 10, extra_resources={"s": True}),
                     "not a number: True", id="NodeType-capacity"),
        pytest.param(lambda: NodeType("n", [cpu()], 10, extra_resources={"s": 0}),
                     "node type 'n': capacity of 's' must be positive",
                     id="NodeType-capacity-range"),
        pytest.param(lambda: PuhtiRates(gpu=True), "not a number: True", id="PuhtiRates"),
        pytest.param(lambda: PuhtiRates(gpu=-1), "rate 'gpu' must be nonnegative", id="PuhtiRates-range"),
        pytest.param(lambda: Partition("free", CPU_NODE, model=PuhtiModel(PuhtiRates(0, 0, 0, 0))),
                     "partition 'free': weight must be positive", id="Partition-weight-range"),
        pytest.param(lambda: puhti_bu(1, True, 0, 0, 1), "not a number: True", id="puhti_bu"),
        pytest.param(lambda: puhti_bu(1, 0, 0, 0, -1), "billing quantities must be nonnegative", id="puhti_bu-range"),
        pytest.param(lambda: puhti_tdp_equivalence(True, 125), "not a number: True", id="tdp-gpu"),
        pytest.param(lambda: puhti_tdp_equivalence(0, 125), "gpu_tdp_watts must be positive", id="tdp-gpu-range"),
        pytest.param(lambda: puhti_tdp_equivalence(300, -125), "cpu_tdp_watts_per_socket must be positive",
                     id="tdp-cpu-range"),
        pytest.param(lambda: puhti_tdp_equivalence(300, 125, 2, True), "not a number: True", id="tdp-node_share"),
        pytest.param(lambda: puhti_tdp_equivalence(300, 125, 2, -1), "node_share must be nonnegative",
                     id="tdp-node_share-range"),
        pytest.param(lambda: speedup_from_time(True), "not a number: True", id="speedup_from_time"),
        pytest.param(lambda: speedup_from_time(0), "GPU runtime must be positive", id="speedup_from_time-range"),
        pytest.param(lambda: decide_and_energy(True, ENERGY, CPU_NODE, GPU_NODE), "not a number: True",
                     id="decide-speedup"),
        pytest.param(lambda: decide_and_energy(0, ENERGY, CPU_NODE, GPU_NODE), "speedup must be positive",
                     id="decide-speedup-range"),
        pytest.param(lambda: decide_and_energy(2, ENERGY, CPU_NODE, GPU_NODE, -1), "baseline_hours must be positive",
                     id="decide-baseline-range"),
        pytest.param(lambda: sweep_bounds(True, 2, 2), "not a number: True", id="sweep-s_min"),
        pytest.param(lambda: printed_ratio_matches(True, "1"),
                     "not a number: True", id="printed_ratio_matches-computed"),
    ],
)
def test_a_count_name_or_amount_is_refused_by_its_one_rule(call, message):
    with pytest.raises(ValidationError) as raised:
        call()
    assert str(raised.value) == message
