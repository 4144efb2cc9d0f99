"""One benchmark set-up in a fresh interpreter: import c2sim and numpy, then
write the workload's input files.

    python3 bench/setup_inputs.py {full|tiny} <workload> <seed> <directory>

run.py times this script from spawn to exit several times and reports the
median as setup_s, so interpreter start, imports and input generation all
count, as they do for a user's first command.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402,F401
import c2sim.cli  # noqa: E402,F401

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    table, name, seed, directory = argv
    spec = (workloads.TINY if table == "tiny" else workloads.WORKLOADS)[name]
    workloads.write_inputs(spec, int(seed), directory)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
