"""Write expected_solve_seed0.json: the exact values of every input of the
three solve workloads for seed 0, recorded from the library so later
versions must match.

    python3 perfbench/record_expected.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import isolation  # noqa: E402

from workloads import EXPECTED_SOLVE, SIZES, solve_pool  # noqa: E402

values = {}
for stratum in SIZES["full"]["solve"]:
    family, graphs = solve_pool(stratum, 0, SIZES["full"])
    values[stratum] = [isolation.iota_exact(g, family).value for g in graphs]
EXPECTED_SOLVE.write_text(json.dumps(values) + "\n")
