"""Tests of the benchmark itself, on the reduced --smoke sizes.

    python3 -m pytest -q perfbench
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, LAYERS, PER_LAYER, WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def printed_metrics(lines):
    """{name: unit} of the `name value unit` lines before the result."""
    out = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0] in PER_LAYER.keys() | END_TO_END.keys():
            float(parts[1])
            out[parts[0]] = parts[2]
    return out


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_benchmark_json_is_well_formed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8 and len(spec["per_layer"]) <= 128
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in spec["workloads"]]
    for m in spec["end_to_end"] + spec["per_layer"]:
        names.append(m["name"])
        assert unit.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(name.match(n) for n in names) and len(set(names)) == len(names)
    assert all(0 < len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric_with_its_unit(workload):
    code, lines = bench("--workload", workload, "--trace", "0", "--smoke")
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert printed_metrics(lines) == END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_expected_value_counts_as_a_failure():
    code, lines = bench("--workload", "exhaustive-scan", "--trace", "0",
                        "--smoke", "--wrong-expected")
    assert code == 0
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert result["failed"] == 1  # the one universality certificate
    ratio = next(l for l in lines if l.startswith("fail_ratio "))
    assert float(ratio.split()[1]) == 1 / result["attempted"]


def test_smoke_trace_prints_every_per_layer_metric():
    code, lines = bench("--workload", "series-deep", "--trace", "1", "--smoke")
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    shares = [result["metrics"][f"self_pct.{layer}"]["value"]
              for layer in LAYERS + ("unattributed",)]
    assert sum(shares) == pytest.approx(100, abs=0.01)
    assert result["metrics"]["self_pct.deformation.tangent"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = bench("--workload", "series-deep", "--trace", "0",
                        cwd=tmp_path)
    assert code != 0
    assert not lines


def test_self_time_excludes_child_spans():
    tr = Tracer()
    leaf = tr.wrap(lambda: time.sleep(0.02), "leaf", "artin.rings")
    inner = tr.wrap(lambda: (time.sleep(0.01), leaf(), leaf()), "inner", "series")
    outer = tr.wrap(lambda: (inner(), time.sleep(0.01)), "outer", "nottingham")
    t0 = time.perf_counter_ns()
    outer()
    total = time.perf_counter_ns() - t0
    summary = tr.summary(total)
    ms = {k: v / 1e6 for k, v in summary["self_ns"].items()}
    assert ms["artin.rings"] == pytest.approx(40, abs=8)
    assert ms["series"] == pytest.approx(10, abs=8)
    assert ms["nottingham"] == pytest.approx(10, abs=8)
    assert sum(summary["self_ns"].values()) == total
    assert summary["calls"] == 4
