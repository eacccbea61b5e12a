import json

import pytest

from sumeter import NodeUsage, Partition, reference_cpu_node, reference_gpu_node
from sumeter.cli import main

TEST_CONFIG = {
    "partitions": [
        {
            "name": "work",
            "model": "energy",
            "node_count": 1000,
            "node": {
                "name": "dual-xeon-6240",
                "memory_total_gib": 256,
                "cpus": [
                    {"name": "Xeon Gold 6240", "cores": 18, "tdp_watts": 150, "peak_flops": 1.5e12, "count": 2}
                ],
                "gpus": [],
            },
        },
        {
            "name": "gpu",
            "model": "energy",
            "node_count": 250,
            "node": {
                "name": "quad-a100",
                "memory_total_gib": 256,
                "cpus": [
                    {"name": "Xeon Gold 6240", "cores": 18, "tdp_watts": 150, "peak_flops": 1.5e12, "count": 2}
                ],
                "gpus": [
                    {
                        "name": "A100 SMX",
                        "streaming_multiprocessors": 108,
                        "tdp_watts": 400,
                        "peak_flops": 9.7e12,
                        "count": 4,
                    }
                ],
            },
        },
        {
            "name": "gpu-sm",
            "model": "sm",
            "node_count": 8,
            "node": {
                "name": "quad-a100-sm",
                "memory_total_gib": 256,
                "cpus": [
                    {"name": "Xeon Gold 6240", "cores": 18, "tdp_watts": 150, "peak_flops": 1.5e12, "count": 2}
                ],
                "gpus": [
                    {
                        "name": "A100 SMX",
                        "streaming_multiprocessors": 108,
                        "tdp_watts": 400,
                        "peak_flops": 9.7e12,
                        "count": 4,
                    }
                ],
            },
        },
        {
            "name": "legacy",
            "model": "titan",
            "node_count": 16,
            "node": {
                "name": "opteron-kepler",
                "memory_total_gib": 32,
                "cpus": [{"name": "Opteron", "cores": 16, "tdp_watts": 115, "peak_flops": 1.4e11}],
                "gpus": [
                    {"name": "Kepler K20X", "streaming_multiprocessors": 14, "tdp_watts": 235, "peak_flops": 1.3e12}
                ],
            },
        },
        {
            "name": "shared",
            "model": "puhti",
            "node_count": 10,
            "node": {
                "name": "v100-node",
                "memory_total_gib": 384,
                "cpus": [
                    {"name": "Xeon Gold 6230", "cores": 20, "tdp_watts": 125, "peak_flops": 1.2e12, "count": 2}
                ],
                "gpus": [
                    {"name": "V100", "streaming_multiprocessors": 80, "tdp_watts": 300, "peak_flops": 7e12, "count": 4}
                ],
                "extra_resources": {"nvme_gib": 1490},
            },
        },
    ]
}


@pytest.fixture
def cpu_node():
    return reference_cpu_node()


@pytest.fixture
def gpu_node():
    return reference_gpu_node()


@pytest.fixture
def cpu_partition(cpu_node):
    return Partition("cpu", cpu_node, node_count=1000)


@pytest.fixture
def gpu_partition(gpu_node):
    return Partition("gpu", gpu_node, node_count=250)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(TEST_CONFIG), encoding="utf-8")
    return path


def run(capsys, *argv):
    """The exit code, stdout and stderr of `sumeter *argv`, run in process."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_jobs_csv(path, rows):
    header = "job_id,project,partition,nodes,cores_per_node,gpus_per_node,mem_gib_per_node,elapsed_hours"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


def write_details_csv(path, rows):
    header = "job_id,node_index,cores,gpus,mem_gib"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def full_node_usage():
    return NodeUsage(cores_used=36, gpus_used=0, memory_used_gib=256)
