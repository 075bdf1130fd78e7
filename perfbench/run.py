#!/usr/bin/env python3
"""Builds and runs the sustained replication benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: abc-tcp-saturated, abc-tcp-paced, rc-threaded-flood (see
perfbench/README.md). The benchmark is built from source with cargo
(offline, release) into $CARGO_TARGET_DIR, or perfbench/target when that
is unset. Every metric is printed by name with its unit and sample
count; the last stdout line is one JSON object. The exit code is
non-zero when the build fails or a correctness check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
BINARY = "sintra-perfbench"


def capture(cmd):
    """Output of a short command, or 'unknown' when it cannot run."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(ROOT, target, "release", BINARY)
    env = dict(os.environ)
    env["PERFBENCH_RUSTC"] = capture(["rustc", "--version"])
    env["PERFBENCH_COMMIT"] = (
        capture(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else "unknown"
    )
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
