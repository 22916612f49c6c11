#!/usr/bin/env python3
"""Build and run the SCTM benchmark.

    python3 perfbench/run.py --workload flagship|heldout_apps|sweep \
        --seed N --seconds S --trace 0|1

Builds the benchmark package (perfbench/Cargo.toml) and the release
`sctmd` daemon from source, then runs one workload. Every timed run sees
the same environment: observability off (SCTM_OBS unset) and
single-threaded capture (SCTM_THREADS=1). Build output goes to stderr;
the last line of stdout is the benchmark's JSON result. Build artefacts
go to $CARGO_TARGET_DIR, by default .bench_build/ at the repository root.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(env):
    """Build both binaries; return their paths, or None on failure."""
    steps = [
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "sctm-srv", "--bin", "sctmd"],
    ]
    for cmd in steps:
        if not os.path.exists(cmd[cmd.index("--manifest-path") + 1]):
            print(f"run.py: missing {cmd[cmd.index('--manifest-path') + 1]}",
                  file=sys.stderr)
            return None
        if subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr).returncode:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    return os.path.join(release, "sctm-perfbench"), os.path.join(release, "sctmd")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["flagship", "heldout_apps", "sweep"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    env = dict(os.environ)
    env.pop("SCTM_OBS", None)
    env["SCTM_THREADS"] = "1"
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    bins = build(env)
    if bins is None:
        return 1
    bench, sctmd = bins
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--sctmd", sctmd,
           "--work-dir", os.path.join(ROOT, ".perfbench_work")]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
