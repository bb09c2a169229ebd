"""Re-pin expected.json from the current sources.

    python3 bench/pin.py [workload ...]

Runs every listed workload (default: all) once per seed phase and stores the
full-precision rows next to the tolerances below.  Re-pin only when a change
is meant to alter the tables, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import warnings

from check import EXPECTED_PATH, row_values
from run import cap_blas_threads, import_cli
from workloads import WORKLOADS

# Calibrated on this commit: reordering the stepper's arithmetic (explicit 2x2
# symbol products, bincount instead of np.add.at) moved E by at most 3.2e-10
# relative, C1 by 8e-13, C2-1 and C3-1 by at most 1.4e-13 absolute.  Changing
# the Picard tol_factor from 0.002 to 0.001 moved E on tri-coarse by 6e-8 and
# C2-1 by 1e-3 relative; 0.01 moved E on sin-spectral by 4.6e-2.
TOLERANCES = {
    "E": {"rel": 1e-8, "reason":
          "30x the largest change from reordering the stepper's arithmetic "
          "(3.2e-10); a Picard tol_factor of 0.001 instead of 0.002 moves "
          "tri-coarse E by 6e-8"},
    "C1": {"abs": 1e-11, "reason":
           "mass is conserved by the scheme, so C1 may differ only by the "
           "round-off of node sums over up to 65536 dofs (n*eps ~ 1.5e-11); "
           "reordering moved it by 8e-13"},
    "C2": {"abs": 1e-12, "rel_dev": 1e-6, "reason":
           "C2-1 is the L2 drift the Picard tolerance allows; 1e-6 of it plus "
           "round-off. Reordering moved C2-1 by <=3.8e-7 of itself (6.7e-16 "
           "absolute); tol_factor 0.001 moves it by 1e-3 of itself"},
    "C3": {"abs": 1e-12, "rel_dev": 1e-6, "reason":
           "as C2, for the Hamiltonian drift; reordering moved C3-1 by "
           "<=2e-8 of itself"},
    "rate": {"abs": 1e-7, "reason":
             "a rate is log2 of an E ratio, so E's 1e-8 relative tolerance on "
             "two rows allows 2.9e-8"},
}


def main(names: list[str]) -> int:
    cap_blas_threads()
    cli = import_cli()
    warnings.filterwarnings("ignore", message="CFL")
    try:
        with open(EXPECTED_PATH) as fh:
            tables = json.load(fh)["tables"]
    except FileNotFoundError:
        tables = {}
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        for seed in range(workload.phases):
            cfg = workload.config(cli, seed)
            tables[workload.table_key(seed)] = [row_values(r) for r in cli.run_table(cfg)]
            print(f"pinned {workload.table_key(seed)}", file=sys.stderr)
    with open(EXPECTED_PATH, "w") as fh:
        json.dump({"tolerances": TOLERANCES, "tables": dict(sorted(tables.items()))},
                  fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
