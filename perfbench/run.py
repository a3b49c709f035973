#!/usr/bin/env python3
"""Build the perfbench harness from this checkout, then run one workload.

    python3 perfbench/run.py --workload query_8day --seed 1 --seconds 10 --trace 0

The harness is a Rust package of its own (perfbench/Cargo.toml). It is
built in release mode, offline, into $CARGO_TARGET_DIR (default
`.bench_build` under the repository root). The root manifest's
[patch.crates-io] table is passed to cargo through `--config`, so the
harness always builds against the same vendored crates as the
repository. Build output goes to standard error. The harness's standard
output passes through unchanged: its last line is the result object.

Exits non-zero, without a result line, when the repository sources are
missing or the build fails.
"""

import os
import subprocess
import sys
import tomllib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def patch_flags():
    """`--config` flags reproducing the root manifest's crates-io patches."""
    with open(os.path.join(ROOT, "Cargo.toml"), "rb") as f:
        manifest = tomllib.load(f)
    flags = []
    for name, spec in manifest.get("patch", {}).get("crates-io", {}).items():
        if isinstance(spec, dict) and "path" in spec:
            flags += ["--config", f'patch.crates-io.{name}.path="{spec["path"]}"']
    return flags


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(cmd, timeout, **kwargs):
    """Run `cmd`, killing it (and waiting for it) if it outlives `timeout`."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 1


def main():
    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: no Cargo.toml at the repository root; nothing to build",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["CARGO_NET_OFFLINE"] = "true"
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
    ] + patch_flags()
    code = run(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        print(f"perfbench: build failed (exit {code})", file=sys.stderr)
        return code or 1
    env["PERFBENCH_GIT_REV"] = git_revision()
    target = os.path.join(ROOT, target)
    env["PERFBENCH_OUT"] = os.path.join(target, "perfbench")
    exe = os.path.join(target, "release", "perfbench")
    return run([exe] + sys.argv[1:], RUN_TIMEOUT_S, env=env)


if __name__ == "__main__":
    sys.exit(main())
