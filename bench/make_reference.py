"""Write reference/mc_tables.json: the outcome of every pool block.

    python3 bench/make_reference.py

Runs Tables 1 and 3 on each block of the mc_tables pool exactly as the
workload does and stores the cell values and failure counts.  Every block
must run: a call that raises stops the script.  A table listed in
MC_KNOWN_DEFECTS has no reference: every call of it raises (Table 2 when
this file was written).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402


def block_outcome(table: int, block: int) -> dict:
    result = workloads.mc_call(table, block, workloads.MC_REPS[table])
    return {
        "values": result.values.tolist(),
        "failures": result.failures.tolist(),
    }


def main() -> int:
    tables = {
        str(t): {
            "reps": workloads.MC_REPS[t],
            "blocks": [block_outcome(t, b) for b in range(workloads.MC_POOL)],
        }
        for t in (1, 2, 3) if t not in workloads.MC_KNOWN_DEFECTS
    }
    payload = {
        "seed_base": workloads.MC_SEED_BASE,
        "pool": workloads.MC_POOL,
        "tables": tables,
    }
    path = workloads.REFERENCE_DIR / "mc_tables.json"
    text = json.dumps(payload, separators=(",", ":"))
    # One block per line keeps later diffs of the file readable.
    path.write_text(text.replace(',{"values"', ',\n{"values"') + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
