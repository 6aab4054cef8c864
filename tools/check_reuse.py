#!/usr/bin/env python
"""Fail unless a warm pass reused every design from the warehouse.

Compares two ``repro report --json`` documents of one warehouse: the
report taken before the warm pass (a file) and the report after it
(stdin).  The runs the warm pass recorded are those missing from the
first report; the check passes when there is at least one such run and
none of them recomputed a design::

    python -m repro report --json > before.json
    ... the warm pass ...
    python -m repro report --json | python tools/check_reuse.py before.json

Exits 0 when every new run was served wholly from the store, 1 otherwise.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as handle:
        before = {run["id"] for run in json.load(handle)["runs"]}
    runs = [run for run in json.load(sys.stdin)["runs"] if run["id"] not in before]
    for run in runs:
        print(
            f"run {run['id']} ({run['kind']}): {run['reused']} reused, "
            f"{run['recomputed']} recomputed"
        )
    if not runs:
        print("error: the warm pass recorded no run", file=sys.stderr)
        return 1
    if any(run["recomputed"] for run in runs):
        print("error: the warm pass recomputed designs", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
