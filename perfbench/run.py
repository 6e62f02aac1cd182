#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source if needed, then runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The build goes to .bench_build/perfbench and
run outputs (sink files, durable logs, span traces) to .bench_build/work.
Every SB_* environment variable is removed before the benchmark starts, so
the caller's environment cannot change the program being measured.  The last
line of stdout is the benchmark's JSON result; build output goes to stderr.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")


def clean_env():
    """The environment without SB_* knobs, and the names removed."""
    cleared = sorted(k for k in os.environ if k.startswith("SB_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("SB_")}
    return env, cleared


def build(env, target="perfbench"):
    """Configures on first use and builds `target`; returns its path or None."""
    configured = any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, target)


def main(argv):
    env, cleared = clean_env()
    if cleared:
        print("perfbench: cleared " + " ".join(cleared), file=sys.stderr)
    binary = build(env)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    proc = subprocess.run([binary, "--workdir", WORK] + argv, env=env)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
