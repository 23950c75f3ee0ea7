#!/usr/bin/env python3
"""tlmarkov benchmark: each workload is one ``python -m tlmarkov.cli``
command, run in a fresh interpreter with ``PYTHONPATH=src``.

    python3 bench/run.py --workload verify-n7 --seed 1 --seconds 40 --trace 0

Load is a closed loop with one client: one CLI process at a time, the next
one started only after the previous one exited.

``--trace 0`` runs the command back to back for ``--seconds`` seconds (at
least once), checks every output against ``bench/reference.json``, and
reports the end-to-end metrics of ``BENCHMARK.json``: the median wall time
and child peak RSS over the invocations, and the median set-up time (a fresh
interpreter importing ``tlmarkov.cli``) over several probes.

``--trace 1`` runs ``bench/layers.py`` once in a fresh interpreter and the
untraced command once, and reports the per-layer metrics.  The spans go to
``.bench_work/trace-<workload>-seed<seed>.json``.

The seed fixes the order of the work inside a run (where the set-up probes
fall between invocations; which of the traced and untraced runs goes first).
The program receives only its CLI arguments.  The last stdout line is the
JSON result; a summary goes to stderr.  Exit code 2, and no result, when the
program cannot be set up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import ROOT, SRC, WORKLOADS, Workload, load_reference, output_problem

WORK_DIR = ROOT / ".bench_work"
SETUP_PROBES = 11
RUN_LIMIT_S = 170.0  # a child still running then is killed and counted as failed


class SetupError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Starts one child at a time and kills any child still running at the
    run's deadline."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = child_env()

    def spawn(self, argv: list[str], stdout_path: Path) -> tuple[float, int, float, bytes]:
        """Run argv to exit; return wall seconds, exit code, peak RSS in MiB
        and the tail of stderr.  stdout goes to ``stdout_path``."""
        err_path = stdout_path.with_suffix(".err")
        with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            # wait4 reaped the child; tell Popen so it does not wait again
            proc.returncode = os.waitstatus_to_exitcode(status)
        stderr_tail = err_path.read_bytes()[-2000:]
        err_path.unlink()
        return wall, proc.returncode, usage.ru_maxrss / 1024.0, stderr_tail

    def setup_probe(self) -> float:
        """Wall seconds for a fresh interpreter to import tlmarkov.cli and exit."""
        wall, code, _, stderr = self.spawn(
            [sys.executable, "-c", "import tlmarkov.cli"], WORK_DIR / "setup.out"
        )
        if code != 0:
            raise SetupError(f"importing tlmarkov.cli failed: {stderr.decode(errors='replace')}")
        return wall

    def invoke(self, workload: Workload, reference: dict) -> tuple[float, float, str | None]:
        """One CLI invocation: wall seconds, peak RSS MiB, output problem."""
        out_path = WORK_DIR / "cli.out"
        wall, code, rss, stderr = self.spawn(
            [sys.executable, "-m", "tlmarkov.cli", *workload.argv], out_path
        )
        problem = output_problem(workload, code, out_path.read_bytes(), reference)
        out_path.unlink()
        if problem and stderr:
            problem += f"; stderr: {stderr.decode(errors='replace').strip()}"
        return wall, rss, problem


def run_untraced(workload: Workload, seed: int, seconds: float, reference: dict) -> dict:
    rng = random.Random(seed)
    start = time.monotonic()
    runner = Runner(start + RUN_LIMIT_S)
    runner.setup_probe()  # untimed: writes bytecode and proves the program imports
    setups: list[float] = []
    walls: list[float] = []
    rss: list[float] = []
    problems: list[str] = []
    order: list[str] = []

    def probe() -> None:
        setups.append(runner.setup_probe())
        order.append("setup")

    while True:
        for _ in range(min(SETUP_PROBES - len(setups), rng.randint(0, 2))):
            probe()
        wall, peak, problem = runner.invoke(workload, reference)
        walls.append(wall)
        rss.append(peak)
        order.append("cli")
        if problem:
            problems.append(problem)
        pending = SETUP_PROBES - len(setups)
        expected = statistics.median(walls) + pending * statistics.median(setups or [0.2])
        if time.monotonic() - start + expected > seconds:
            break
    while len(setups) < SETUP_PROBES:
        probe()

    summary = {
        "workload": workload.name,
        "seed": seed,
        "order": order,
        "wall_s": walls,
        "setup_s": setups,
        "peak_rss_mb": rss,
        "samples": len(walls),
        "failed_ratio": len(problems) / len(walls),
        "problems": problems,
    }
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
    }
    return result(summary, len(walls), len(problems), metrics)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def counter_changes(workload: Workload, counters: dict, store: Path) -> list[str]:
    """Compare counters with the last traced run of the same workload on the
    same source tree; record these for the next run."""
    seen = json.loads(store.read_text()) if store.exists() else {}
    key = f"{source_digest()} {workload.name}"
    previous = seen.get(key)
    seen[key] = counters
    store.write_text(json.dumps(seen, indent=1, sort_keys=True))
    if previous is None:
        return []
    return [
        f"counter {name} changed between traced runs: {previous.get(name)} -> {value}"
        for name, value in sorted(counters.items())
        if previous.get(name) != value
    ]


def run_traced(
    workload: Workload, seed: int, reference: dict, per_layer: list[dict], store: Path
) -> dict:
    rng = random.Random(seed)
    runner = Runner(time.monotonic() + RUN_LIMIT_S)
    runner.setup_probe()
    trace_id = f"{workload.name}-seed{seed}"
    spans_path = WORK_DIR / f"trace-{trace_id}.json"
    steps = ["untraced", "traced"]
    rng.shuffle(steps)
    untraced_problems: list[str] = []
    traced_problems: list[str] = []
    for step in steps:
        if step == "untraced":
            untraced_wall, _, problem = runner.invoke(workload, reference)
            untraced_problems += [problem] if problem else []
            continue
        out_path = WORK_DIR / "layers.out"
        rendered = WORK_DIR / "layers.bin"
        traced_wall, code, _, stderr = runner.spawn(
            [
                sys.executable,
                str(Path(__file__).resolve().parent / "layers.py"),
                "--workload", workload.name,
                "--trace-id", trace_id,
                "--spans-out", str(spans_path),
                "--output", str(rendered),
            ],
            out_path,
        )
        lines = out_path.read_text().splitlines()
        out_path.unlink()
        values = json.loads(lines[-1]) if code == 0 and lines else {}
        problem = output_problem(
            workload, code, rendered.read_bytes() if rendered.exists() else b"", reference
        )
        rendered.unlink(missing_ok=True)
        if problem:
            tail = stderr.decode(errors="replace").strip()
            traced_problems.append(
                f"traced run: {problem}" + (f"; stderr: {tail}" if tail else "")
            )

    values["trace.overhead_s"] = traced_wall - untraced_wall
    units = {m["name"]: m["unit"] for m in per_layer}
    counters = {k: v for k, v in values.items() if units.get(k, "s") != "s"}
    if counters:
        traced_problems += counter_changes(workload, counters, store)
    # a layer this workload never calls did no work in it
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in per_layer
    }
    failed = bool(untraced_problems) + bool(traced_problems)
    summary = {
        "workload": workload.name,
        "seed": seed,
        "order": steps,
        "spans": str(spans_path.relative_to(ROOT)),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "failed_ratio": failed / 2,
        "problems": untraced_problems + traced_problems,
    }
    return result(summary, 2, failed, metrics)


def result(summary: dict, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "summary": summary,
        "line": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tlmarkov" / "cli.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    reference = load_reference()
    try:
        if args.trace:
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())
            out = run_traced(
                workload, args.seed, reference, spec["per_layer"], WORK_DIR / "counters.json"
            )
        else:
            out = run_untraced(workload, args.seed, args.seconds, reference)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out["summary"]), file=sys.stderr)
    print(json.dumps(out["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
