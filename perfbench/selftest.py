"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Checks ``BENCHMARK.json`` against the benchmark's output contract, runs
every workload at the tiny size through its correctness checks, untraced
on two seeds and traced on one, validates each result line, and checks
that the benchmark refuses to run without the program's sources.
Exits 0 when everything holds.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert 1 <= len(spec["paths"]) <= 16
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200, w
    for m in spec["end_to_end"] + spec["per_layer"]:
        names.append(m["name"])
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    assert all(NAME.match(n) for n in names), names
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def run(cwd, workload, seed, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec, proc, trace):
    """Validates one result line; returns its metric values."""
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout[-3000:]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"], (m, metric)
        assert math.isfinite(metric["value"]), (m, metric)
        assert trace or metric["value"] != 0, (m, metric)
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    measured = set()
    for w in spec["workloads"]:
        for seed, trace in ((0, 0), (1, 0), (0, 1)):
            values = check_result(spec, run(ROOT, w["name"], seed, trace),
                                  trace)
            if trace:
                measured.update(name for name, v in values.items() if v)
            print(f"ok {w['name']} seed={seed} trace={trace}", flush=True)
    # Every layer metric is measured by some workload; the detection
    # delay is legitimately 0 on these inputs.
    unmeasured = ({m["name"] for m in spec["per_layer"]} - measured
                  - {"monitoring.detect_delay_steps"})
    assert not unmeasured, unmeasured

    bare = os.path.join(HERE, "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run(bare, spec["workloads"][0]["name"], 0, 0)
        assert proc.returncode != 0 and "correct" not in proc.stdout, proc
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok without program sources: refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
