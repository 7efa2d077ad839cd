"""Tests of the benchmark itself.  Run from the repository root with

    python -m pytest qidbench/tests
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, dump_files  # noqa: E402

import qidsim.cli  # noqa: E402
import qidsim.qid_network  # noqa: E402

COUNT_SUFFIXES = (".calls", "_bytes", "_points", ".bytes")


def count_metrics(record: dict) -> dict:
    return {k: m["value"] for k, m in record["metrics"].items() if k.endswith(COUNT_SUFFIXES)}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_computed_counts_repeat_exactly_for_a_fixed_seed(name):
    first, second = (run.run_workload(WORKLOADS[name], 7, 0.0, trace=True) for _ in range(2))
    assert first["failed"] == 0
    counts = count_metrics(first)
    assert set(counts) == {k for k in tracer.layer_metric_names() if k.endswith(COUNT_SUFFIXES)}
    assert counts == count_metrics(second)
    assert counts["cli.out_bytes"] > 0


def test_counts_follow_array_shapes():
    record = run.run_workload(WORKLOADS["qudit-large"], 7, 0.0, trace=True)
    counts = count_metrics(record)
    assert counts["qid_network.joint_bytes"] == 16 * 64**3
    assert counts["qid_network.distribute.calls"] == 1
    assert counts["qudit_core.partial_trace.calls"] == 3


def test_tracer_restores_every_binding():
    originals = (qidsim.qid_network.distribute, qidsim.qid_network.partial_trace,
                 qidsim.qid_network.PermutationGate.apply)
    t = tracer.Tracer()
    t.install()
    assert qidsim.qid_network.distribute is not originals[0]
    assert qidsim.qid_network.partial_trace is not originals[1]
    t.uninstall()
    assert (qidsim.qid_network.distribute, qidsim.qid_network.partial_trace,
            qidsim.qid_network.PermutationGate.apply) == originals


def test_self_time_excludes_child_spans():
    t = tracer.Tracer()
    t.op_id = 0
    outer = t._open(0)
    inner = t._open(1)
    t._close(inner)
    t._close(outer)
    t.start[outer], t.end[outer] = 0.0, 3.0
    t.start[inner], t.end[inner] = 1.0, 2.0
    own = t.self_times()[0]
    assert own[t.names[0]] == pytest.approx(2.0)
    assert own[t.names[1]] == pytest.approx(1.0)


def _corrupt_qudit(key):
    def corrupt(text, argv):
        doc = json.loads(text)
        doc[key] = math.nan
        return json.dumps(doc)
    return corrupt


def _wrong_f1(text, argv):
    lines = text.splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index("F1")] = "0.7"
    return "\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n"


def _truncate_dump(text, argv):
    for path in dump_files(argv):
        body = path.read_text().splitlines(keepends=True)
        path.write_text("".join(body[:-1]))
    return text


def _nan_in_dump(text, argv):
    for path in dump_files(argv):
        body = path.read_text().splitlines(keepends=True)
        body[len(body) // 2] = "0,0,nan\n"
        path.write_text("".join(body))
    return text


CORRUPTIONS = [
    ("qudit-large", _corrupt_qudit("rho1_fidelity")),
    ("qudit-large", _corrupt_qudit("rho2_fidelity")),
    ("qudit-small", _corrupt_qudit("max_deviation")),
    ("cv-grid", _wrong_f1),
    ("cv-dump", _truncate_dump),
    ("cv-dump", _nan_in_dump),
]


def _corrupting_main(corrupt):
    def main(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = qidsim.cli.main(argv)
        sys.stdout.write(corrupt(buf.getvalue(), argv))
        return rc
    return main


@pytest.mark.parametrize("name,corrupt", CORRUPTIONS)
def test_corrupted_output_fails_the_check(name, corrupt):
    workload = WORKLOADS[name]
    argv = workload.make_argv(run.np.random.default_rng([3, 0]), run.WORK)
    run.WORK.mkdir(exist_ok=True)
    _, out, error = run.run_op(qidsim.cli.main, argv)
    assert run.checked(workload, argv, out, error) is None
    _, out, error = run.run_op(_corrupting_main(corrupt), argv)
    assert run.checked(workload, argv, out, error) is not None


def test_corrupted_ops_count_in_failed_ratio():
    bad = _corrupting_main(_corrupt_qudit("rho1_fidelity"))
    record = run.run_workload(WORKLOADS["qudit-large"], 3, 0.0, trace=False, main=bad)
    # three cold starts run the real program; the warm-up and the timed op are corrupted
    assert record["attempted"] == run.COLD_STARTS + 2
    assert record["failed"] == 2
    assert record["failed_ratio"] == pytest.approx(2 / record["attempted"])
    assert "rho1_fidelity" in record["errors"][0]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples) == (90.0, 90.0)
    assert run.tail(samples[:5]) == (5.0, 100.0)
    assert run.tail(samples[:50]) == (40.0, 80.0)


def test_tail_is_median_over_blocks_so_one_burst_does_not_set_it():
    steady = [1.0 + 0.01 * (i % 100) for i in range(300)]
    burst = steady[:100] + [50.0] * 30 + steady[130:]
    assert run.tail(steady) == (pytest.approx(1.89), 90.0)
    assert run.tail(burst + [99.0] * 99) == (pytest.approx(1.89), 90.0)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, tracer.layer_unit(name)) for name in tracer.layer_metric_names()
    ]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "qudit-large", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
