#!/usr/bin/env python3
"""Build the TAXI benchmark and run it confined to one CPU.

Usage, from the repository root:

    python3 perfbench/run.py --cal-nominal-us <us> --workload <name> \
        --seed <n> --seconds <s> --trace <0|1>

The arguments go to the benchmark binary unchanged. Cargo output goes to
stderr, so the last line of stdout is the binary's JSON result. The binary is
built into $CARGO_TARGET_DIR, or perfbench/target when that is unset.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "taxi-perfbench")
    # One CPU for the whole process: the calibration kernel then runs on the
    # CPU that does the work, and every thread the program starts inherits it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    child = subprocess.Popen([binary, *sys.argv[1:]])
    try:
        return child.wait()
    except BaseException:
        child.kill()
        child.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
