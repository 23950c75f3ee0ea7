#!/usr/bin/env python3
"""Sweep the exact verification suite over a range of diagram sizes.

Prints one row per size with check timings, the meander closed form of the
determinant, plus the fixture checks at n = 3 and (optionally) the
modular determinant oracle.  Exit status is
nonzero if any check fails, which makes the script usable as a long-form
smoke test:

    python scripts/run_verification.py --max-n 6 --det-oracle-max-n 6
"""

import argparse
import sys
import time

from tlmarkov.diagrams import enumerate_diagrams
from tlmarkov.ortho import (
    check_fixture_bases,
    det_closed_form_check,
    det_oracle_check,
    verify_orthogonality,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument(
        "--det-oracle-max-n",
        type=int,
        default=0,
        help="also run the modular determinant oracle up to this size",
    )
    args = parser.parse_args()

    all_passed = True
    for n in range(1, args.max_n + 1):
        count = len(enumerate_diagrams(n))
        start = time.perf_counter()
        report = verify_orthogonality(n)
        elapsed = time.perf_counter() - start
        status = "ok" if report.passed else "FAILED"
        print(f"n={n:2d}  basis={count:5d}  verify={elapsed:7.2f}s  {status}")
        if not report.passed:
            all_passed = False
            print(report.to_text())
        checks = [("det-oracle", det_oracle_check(n))] if args.det_oracle_max_n >= n else []
        checks.append(("det-closed-form", det_closed_form_check(n)))
        for label, check in checks:
            print(f"       {label}={check.seconds:7.2f}s  "
                  f"{'ok' if check.passed else 'FAILED: ' + check.details}")
            all_passed = all_passed and check.passed

    fixtures = check_fixture_bases()
    print(fixtures.to_text())
    # the opposite-side table ships with its printed sign misprint
    # corrected; the report still diagnoses the table as printed
    all_passed = all_passed and fixtures.passed

    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
