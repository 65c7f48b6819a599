"""Smoke test of the benchmark harness at reduced size (a few seconds a run):

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import AS_MEASURED_UNITS, WORKLOADS  # noqa: E402
from tracing import OUTPUT_COUNTS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seconds", "1",
         "--scale", "smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def table_and_result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    table = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            table[parts[0]] = (float(parts[1]), parts[2])
    return table, json.loads(lines[-1])


def units(metrics) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


# every workload the harness runs, survey8 too, though BENCHMARK.json lists
# only atlas7 and families
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    table, result = table_and_result(run("--workload", workload, "--seed", "3", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = units(SPEC["end_to_end"])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert {k: unit for k, (_, unit) in table.items()} == dict(
        expected, failed_frac="frac", **AS_MEASURED_UNITS
    )
    assert 0 < table["machine_speed"][0] < 10
    assert table["failed_frac"][0] == 0


def test_traced_run_reports_every_per_layer_metric_and_its_spans():
    proc = run("--workload", "families", "--seed", "3", "--trace", "1")
    table, result = table_and_result(proc)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units(SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("toric.monomials", "ehrhart.interior_dilations", "trace.spans"):
        assert metrics[name] > 0, name
    # the counts fixed by inputs and answers are printed as checks only
    for name in OUTPUT_COUNTS:
        assert name not in metrics and table[name][1] == "count", name
    for name in ("polytope.facets", "toric.generators", "ehrhart.lattice_points"):
        assert table[name][0] > 0, name
    path = next(line.split()[-1] for line in proc.stdout.splitlines()
                if line.strip().startswith("spans written to"))
    trace = json.loads(Path(path).read_text(encoding="utf-8"))
    assert len(trace["spans"]) == metrics["trace.spans"]
    for name, start, end, parent in trace["spans"]:
        assert start <= end
        if parent is not None:
            p_start, p_end = trace["spans"][parent][1:3]
            assert p_start <= start and end <= p_end


def test_wrong_reference_counts_as_failed(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    ref = tmp_path / "perfbench" / "reference" / "families.json"
    families = json.loads(ref.read_text(encoding="utf-8"))
    entry = next(iter(families["toric"].values()))
    entry["toric_degrees"] = entry["toric_degrees"] + [2]
    ref.write_text(json.dumps(families), encoding="utf-8")
    table, result = table_and_result(
        run("--workload", "families", "--seed", "3", "--trace", "0", cwd=tmp_path)
    )
    assert not result["correct"] and result["failed"] >= 1
    assert table["failed_frac"][0] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("--workload", "atlas7", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
