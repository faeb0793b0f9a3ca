"""Recompute ``pins.json``: each workload's output digest at the default
seed, written only if the workload's reference variant produces the
same digest and its invariants hold.

    python3 perfbench/pin.py

Run it when a change to the program alters the outputs on purpose, and
say in that change why the pins moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path[0:1] = [str(Path(__file__).resolve().parent.parent)]

from perfbench.run import PINS, rep_problems, spawn  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    digests: dict[str, str] = {}
    for name, workload in WORKLOADS.items():
        for variant in filter(None, (name, workload.reference)):
            rep = spawn(variant, DEFAULT_SEED)
            problems = ([rep["error"]] if rep.get("error")
                        else rep_problems(rep, digests.get(name), None))
            if problems:
                print(f"{variant}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            digests.setdefault(name, rep["digest"])
            print(f"{variant}: {rep['digest']}")
    PINS.write_text(json.dumps({"seed": DEFAULT_SEED, "digests": digests},
                               indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
