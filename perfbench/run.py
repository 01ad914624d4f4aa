"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports the package from ./src.  The last line of standard output is one
JSON object (correct, attempted, failed, metrics); the exit code is 0
only when every op was correct.  See perfbench/README.md.
"""

import time

_START = time.perf_counter()  # setup_s counts imports from here

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

if __name__ == "__main__":
    SRC = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(SRC))
    try:
        import vdsagent
    except ImportError as exc:
        print(f"perfbench: cannot import vdsagent from ./src ({exc})",
              file=sys.stderr)
        sys.exit(2)
    if Path(vdsagent.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: vdsagent came from {vdsagent.__file__}, "
              "not ./src", file=sys.stderr)
        sys.exit(2)
    import driver

    sys.exit(driver.main(import_s=time.perf_counter() - _START))
