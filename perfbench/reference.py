"""One-off reference figures that the workloads leave out for length.

    python3 perfbench/reference.py

Run from the repository root.  Times build_membership_module once for the
larger cells (3,3,4) and (2,5,6), and the tier-1 test suite once, then
prints the figures with the machine facts and writes them to
perfbench/out/reference.json.  The (2,5,6) build alone takes about 45 s
and the suite about 20 s on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from run import OUT, load_nilcert, machine_facts

CELLS = ((3, 3, 4), (2, 5, 6))


def main():
    root = os.getcwd()
    nilcert = load_nilcert(root)
    figures = {}
    for cell in CELLS:
        started = time.perf_counter()
        module = nilcert.quotient.build_membership_module(*cell)
        figures[f"build_{cell[0]}_{cell[1]}_{cell[2]}_s"] = time.perf_counter() - started
        figures[f"rank_{cell[0]}_{cell[1]}_{cell[2]}"] = module.basis.rank
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    started = time.perf_counter()
    suite = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p",
         "no:cacheprovider"],
        cwd=root, env=env, capture_output=True, text=True, timeout=900,
    )
    figures["tier1_s"] = time.perf_counter() - started
    figures["tier1_summary"] = suite.stdout.strip().splitlines()[-1]
    record = {"figures": figures, "machine": machine_facts()}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "reference.json"), "w", encoding="ascii") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(record, indent=1))
    return 0 if suite.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
