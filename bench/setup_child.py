"""Set-up probe run in a fresh interpreter.

    python3 bench/setup_child.py INPUT_DIR

Imports latticeband, parses every scenario document in INPUT_DIR and
validates its operator, then prints CLOCK_MONOTONIC. The caller subtracts
the time it launched this interpreter, which gives the set-up cost a CLI
user pays on every run.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import latticeband as lb  # noqa: E402


def main(folder):
    for path in sorted(Path(folder).glob("*.scenario")):
        sc = lb.parse_scenario_file(path)
        lb.validate_potential(sc.potential(), sc.lattice())
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))


if __name__ == "__main__":
    main(sys.argv[1])
