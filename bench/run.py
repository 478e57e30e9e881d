"""Entry point of the mubsic benchmark; see harness.py for the workloads and metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Pins BLAS to one thread before numpy loads (the matrices are at most 49x49
and the runs are single-caller), and refuses to run without the package
source under src/.
"""

import os
import sys
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    for var in BLAS_VARS:
        os.environ[var] = "1"
    package = Path(__file__).resolve().parent.parent / "src" / "mubsic" / "__init__.py"
    if not package.is_file():
        print(f"error: package source not found at {package}", file=sys.stderr)
        return 2
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
