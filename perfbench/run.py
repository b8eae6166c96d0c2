#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is built from source in release mode into
``$CARGO_TARGET_DIR`` (``.bench_build`` when unset). Build output goes to
standard error; standard output is the benchmark's own, whose last line is
the JSON result. Exits non-zero, printing no result, when the build fails
or the run does not finish within ``RUN_TIMEOUT_S``.
"""

import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    target_dir = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target_dir
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(target_dir, "release", "perfbench")
    # A session of its own, so a timeout stops the load generator too.
    proc = subprocess.Popen([exe] + sys.argv[1:], env=env, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
