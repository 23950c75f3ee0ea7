"""Self-test of the benchmark harness at small sizes (n = 4; never n = 3,
which exits 1 by design).

    python -m pytest -q bench
"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import ROOT, WORKLOADS, load_reference

SMALL = ["verify-n4", "det-oracle-n4", "orthogonalize-n4-json"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def work_dir():
    run.WORK_DIR.mkdir(exist_ok=True)


def tampered(name: str) -> dict:
    reference = copy.deepcopy(load_reference())
    ref = reference[name]
    if "sha256" in ref:
        ref["sha256"] = "0" * 64
    else:
        ref["checks"][0][2] += " (tampered)"
    return reference


@pytest.mark.parametrize("name", SMALL)
def test_clean_run_fails_nothing(name):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
    )
    line = json.loads(proc.stdout.splitlines()[-1])
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert json.loads(proc.stderr.splitlines()[-1])["failed_ratio"] == 0


@pytest.mark.parametrize("name", SMALL)
def test_tampered_reference_counts_as_failed(name):
    out = run.run_untraced(WORKLOADS[name], 5, 1, tampered(name))
    assert out["line"]["correct"] is False
    assert out["line"]["failed"] == out["line"]["attempted"]
    assert out["summary"]["failed_ratio"] == 1


@pytest.mark.parametrize("name", SMALL)
def test_traced_counters_repeat(name, tmp_path):
    store = tmp_path / "counters.json"
    workload = WORKLOADS[name]
    first, second = (
        run.run_traced(workload, seed, load_reference(), SPEC["per_layer"], store)
        for seed in (1, 2)
    )
    for out in (first, second):
        assert out["line"]["correct"] is True, out["summary"]["problems"]
        assert set(out["line"]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    assert [first["line"]["metrics"][c] for c in counts] == [
        second["line"]["metrics"][c] for c in counts
    ]
    spans = json.loads((ROOT / first["summary"]["spans"]).read_text())["spans"]
    root = spans[0]
    assert root["parent"] is None and all(s["trace"] == f"{name}-seed1" for s in spans)
    assert root["self"] == pytest.approx(
        root["end"] - root["start"] - sum(s["end"] - s["start"] for s in spans[1:]
                                          if s["parent"] == 0)
    )


def test_tampered_reference_fails_traced_run(tmp_path):
    name = "orthogonalize-n4-json"
    out = run.run_traced(
        WORKLOADS[name], 1, tampered(name), SPEC["per_layer"], tmp_path / "c.json"
    )
    assert out["line"]["failed"] == out["line"]["attempted"] == 2


def test_changed_counter_is_flagged(tmp_path):
    store = tmp_path / "counters.json"
    workload = WORKLOADS["verify-n4"]
    run.run_traced(workload, 1, load_reference(), SPEC["per_layer"], store)
    seen = json.loads(store.read_text())
    for counters in seen.values():
        counters["ortho.support_terms"] += 1
    store.write_text(json.dumps(seen))
    out = run.run_traced(workload, 1, load_reference(), SPEC["per_layer"], store)
    assert out["line"]["failed"] == 1
    assert any("ortho.support_terms" in p for p in out["summary"]["problems"])


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-n4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
