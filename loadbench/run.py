#!/usr/bin/env python3
"""Build and run the sustained-load benchmark (see main.go).

    python3 loadbench/run.py --workload lossy-n5 --seed 1 --seconds 10 --trace 0
    python3 loadbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a checkout of the repository. It builds the
Go program from source into .bench_build/ at the repository root, with
every Go cache and temporary directory kept there too, then runs it with
the given arguments. `--workload all` runs every workload BENCHMARK.json
declares, one after another. The exit status is the program's (0: all
URB checks passed), 2 when the program cannot be built, 3 on a timeout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "loadbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": BUILD / "gocache",
        "GOPATH": BUILD / "gopath",
        "GOMODCACHE": BUILD / "gopath" / "mod",
        "GOTMPDIR": BUILD / "tmp",
        "TMPDIR": BUILD / "tmp",
        "HOME": BUILD / "home",
        "XDG_CONFIG_HOME": BUILD / "home" / ".config",
        "XDG_CACHE_HOME": BUILD / "home" / ".cache",
    }
    for key, path in dirs.items():
        path.mkdir(parents=True, exist_ok=True)
        env[key] = str(path)
    # Build with the installed toolchain and nothing but this repository:
    # no toolchain download, no workspace, no user go.env.
    env.update(GOTOOLCHAIN="local", GOWORK="off", GOENV="off", GOFLAGS="", GOPROXY="off")
    return env


def build(env):
    try:
        proc = subprocess.run(
            ["go", "build", "-o", str(BINARY), "."],
            cwd=ROOT / "loadbench", env=env, timeout=BUILD_TIMEOUT_S,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"loadbench: build failed: {err}", file=sys.stderr)
        return False
    if proc.returncode != 0:
        print(f"loadbench: build failed:\n{proc.stdout}", file=sys.stderr)
        return False
    return True


def run(env, args):
    try:
        return subprocess.run(
            [str(BINARY), *args, "--store-dir", str(BUILD / "stores")],
            cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        print(f"loadbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3


def main(argv):
    env = go_env()
    if not build(env):
        return 2
    at = next((i + 1 for i, a in enumerate(argv[:-1]) if a in ("--workload", "-workload")), None)
    if at is None or argv[at] != "all":
        return run(env, argv)
    # --workload all: every declared workload in turn.
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    status = 0
    for name in names:
        status = max(status, run(env, argv[:at] + [name] + argv[at + 1:]))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
