"""One cold set-up in a process of its own: import groupshare from source,
prepare a workload, exit.  ``run.py`` times whole runs of this script, from
process start to exit, for ``setup_s``.

    python3 perfbench/setup_once.py <workload> <seed> <size> <workdir>
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import SIZES, WORKLOADS, load_groupshare  # noqa: E402


def main(workload: str, seed: str, size: str, workdir: str) -> None:
    WORKLOADS[workload](load_groupshare(), int(seed), SIZES[size][workload], Path(workdir))


if __name__ == "__main__":
    main(*sys.argv[1:])
