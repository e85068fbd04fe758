#!/usr/bin/env python3
"""Build and run the time-to-diagnosis benchmark.

    python3 perfbench/run.py --workload <openpmd_dxt|fleet_store|serve_mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench` (release) against the
repository's crates into $CARGO_TARGET_DIR (default `.bench_build`), then
runs it with the same arguments. Build output goes to stderr; the last
line of stdout is the benchmark's JSON result. Exits non-zero, printing no
result, when the build fails or the run's output checks fail.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def command_output(argv):
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
        return done.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_files():
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            yield path
            continue
        for directory, subdirs, names in os.walk(path):
            subdirs[:] = sorted(d for d in subdirs if d != "target")
            for name in sorted(names):
                yield os.path.join(directory, name)


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts without git."""
    digest = hashlib.sha256()
    for name in source_files():
        digest.update(os.path.relpath(name, ROOT).encode())
        with open(name, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_GIT_SHA"] = command_output(["git", "rev-parse", "HEAD"])
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"])
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    run = subprocess.run([os.path.join(target, "release", "perfbench")] + sys.argv[1:], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
