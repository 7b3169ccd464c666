#!/usr/bin/env python3
"""Run the closed-form count battery and report every comparison.

Exit status is 0 only when every enumerated count matches its predicted
value (closed form or spanning-tree determinant).
"""

import argparse
import sys

from sandpark import default_suite, reports_to_csv, reports_to_json, verify_counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="verify enumeration counts against exact predictions")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes per enumeration")
    parser.add_argument("--format", choices=("text", "csv", "json"),
                        default="text")
    parser.add_argument("--output", help="write the report here instead of stdout")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")

    reports = verify_counts(default_suite(), jobs=args.jobs)
    if args.format == "csv":
        rendered = reports_to_csv(reports)
    elif args.format == "json":
        rendered = reports_to_json(reports) + "\n"
    else:
        lines = []
        for r in reports:
            verdict = "ok" if r.match else "MISMATCH"
            lines.append(f"{r.family:10s} {r.params:12s} {r.cls:10s} "
                         f"count={r.count:<8d} expected={r.expected:<8d} "
                         f"[{r.expected_source}] {r.millis:8.1f}ms  {verdict}")
        rendered = "\n".join(lines) + "\n"

    if args.output:
        with open(args.output, "w") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)

    mismatches = [r for r in reports if not r.match]
    if mismatches:
        print(f"{len(mismatches)} mismatching counts", file=sys.stderr)
        return 1
    print(f"all {len(reports)} counts match", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
