"""The benchmark's workloads: one ``python -m tlmarkov.cli`` command each.

The inputs are fixed by the command (its n); the benchmark seed only orders
the work inside a run.  The ``-n4`` workloads are the self-test's small
versions of the timed ones and are not listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "verify" or "orthogonalize"
    n: int
    det_oracle: bool = False

    @property
    def argv(self) -> tuple[str, ...]:
        args = [self.command, str(self.n)]
        if self.det_oracle:
            args.append("--det-oracle")
        return (*args, "--format", "json")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-n7", "verify", 7),
        Workload("det-oracle-n5", "verify", 5, det_oracle=True),
        Workload("orthogonalize-n7-json", "orthogonalize", 7),
        Workload("verify-n4", "verify", 4),
        Workload("det-oracle-n4", "verify", 4, det_oracle=True),
        Workload("orthogonalize-n4-json", "orthogonalize", 4),
    )
}


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    """Reference outputs recorded at the seed commit, keyed by workload."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def output_problem(
    workload: Workload, returncode: int, stdout: bytes, reference: dict
) -> str | None:
    """Why an invocation's output is wrong, or None when it is correct.

    verify: exit 0, ``"passed": true`` and every (name, passed, details) of
    the reference report still present; ``seconds`` and keys added later are
    ignored.  orthogonalize: the stdout digest equals the reference digest,
    so the JSON stays byte-identical.
    """
    if returncode != 0:
        return f"exit code {returncode}"
    ref = reference[workload.name]
    if workload.command == "orthogonalize":
        digest = hashlib.sha256(stdout).hexdigest()
        if digest != ref["sha256"]:
            return f"stdout sha256 {digest} != reference {ref['sha256']}"
        return None
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    if report.get("passed") is not True:
        return "report does not say passed"
    got = {(c.get("name"), c.get("passed"), c.get("details")) for c in report.get("checks", [])}
    missing = [tuple(check) for check in ref["checks"] if tuple(check) not in got]
    if missing:
        return f"reference checks missing from the report: {missing}"
    return None
