#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload join|serve-read|serve-ingest \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/bench.exe from source
(dune, release profile, shared dune cache off so nothing is written
outside the checkout), runs it in a fresh scratch directory under
.perfbench_tmp/ (removed on exit), and passes its standard output
through: the last line is the result JSON.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

WORKLOADS = ("join", "serve-read", "serve-ingest")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def git_rev():
    if not os.path.isdir(".git") or shutil.which("git") is None:
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        fail("%s timed out after %d s" % (cmd[0], timeout), 3)
    except BaseException:
        stop(proc)
        raise
    return proc.returncode, out


def stop(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run still stops its child and removes its scratch.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run from the root of a repository checkout (%s missing)" % need)
    if shutil.which("dune") is None:
        fail("dune not found on PATH")

    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run(["dune", "build", "--root", ".", "--profile", "release",
                   "./perfbench/bench.exe"], BUILD_TIMEOUT_S, env=env,
                  stdout=sys.stderr)
    if code != 0 or not os.path.exists(EXE):
        fail("build failed")

    exe = os.path.abspath(EXE)
    os.makedirs(".perfbench_tmp", exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=".perfbench_tmp")
    try:
        code, out = run([exe, "--workload", args.workload,
                         "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace),
                         "--rev", git_rev(), "--build-profile", "release"],
                        RUN_TIMEOUT_S, cwd=scratch, stdout=subprocess.PIPE,
                        text=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(".perfbench_tmp")
        except OSError:
            pass
    sys.stdout.write(out)
    sys.stdout.flush()
    if code == 0:
        check_metric_names(out, args.trace)
    sys.exit(code)


def check_metric_names(out, trace):
    """The result must carry exactly the metrics BENCHMARK.json lists."""
    if not os.path.exists("BENCHMARK.json"):
        return
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    lines = out.strip().splitlines()
    got = list(json.loads(lines[-1])["metrics"]) if lines else []
    if got != want:
        fail("result metrics %s differ from BENCHMARK.json %s" % (got, want), 4)


if __name__ == "__main__":
    main()
