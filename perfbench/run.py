#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload codegen|exec|router --seed N \
        --seconds S --trace 0|1

Run from the root of a source tree.  The script builds
perfbench/bin/perfbench.exe with dune in the release profile, runs one
workload in a single child process, and prints the child's report
followed, as the last line, by one JSON object with the keys
"correct", "attempted", "failed" and "metrics".  With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, including the
child's peak resident memory, which this script measures; with
--trace 1 they are the per-layer metrics, and a Perfetto trace of the
last traced repetition is written under .perfbench/.  Each run also
leaves a full record, with a host and method fingerprint, under
.perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "bin", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SOURCE_DIRS = ["lib", "bin", "perfbench", "workloads"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "./" + EXE[len("_build/default/"):]]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode(errors="replace")[-4000:])
        fail("build failed")


# Keep freed memory in the process: each repetition frees its simulators
# and allocates the next ones, and without these the allocator's first
# few rounds of returning and re-faulting pages land in set-up times.
CHILD_ENV = {"MALLOC_MMAP_THRESHOLD_": str(256 << 20), "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}


def run_child(args):
    """Run the benchmark binary; returns (exit code, stdout lines, peak RSS in MB)."""
    p = subprocess.Popen([os.path.join(ROOT, EXE)] + args, cwd=ROOT, stdout=subprocess.PIPE,
                         env=dict(os.environ, **CHILD_ENV))
    timer = threading.Timer(RUN_TIMEOUT_S, p.kill)
    timer.start()
    try:
        out = p.stdout.read().decode(errors="replace")
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    # ru_maxrss is in KiB on Linux
    return p.returncode, out.splitlines(), usage.ru_maxrss / 1024.0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest():
    """A content hash of the sources the benchmark builds, so results from
    trees without git history still name the code they measured."""
    h = hashlib.sha256()
    paths = []
    for d in SOURCE_DIRS:
        for base, dirs, files in os.walk(os.path.join(ROOT, d)):
            dirs[:] = sorted(x for x in dirs if not x.startswith((".", "_")))
            paths += [os.path.join(base, f) for f in files]
    for path in sorted(paths + [os.path.join(ROOT, "dune-project")]):
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, timeout=10)
        return p.stdout.decode().strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def main():
    ap = argparse.ArgumentParser(description="build and run the perfbench benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if a.workload not in names:
        fail("unknown workload %r (expected one of %s)" % (a.workload, ", ".join(names)))
    if a.seconds <= 0:
        fail("--seconds must be positive")

    t0 = time.time()
    build()
    build_s = time.time() - t0

    os.makedirs(os.path.join(ROOT, ".perfbench", "results"), exist_ok=True)
    tag = "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace)
    child_args = ["--workload", a.workload, "--seed", str(a.seed),
                  "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        trace_path = os.path.join(".perfbench", "trace-%s-seed%d.json" % (a.workload, a.seed))
        child_args += ["--trace-out", trace_path]
    code, lines, peak_mb = run_child(child_args)
    if code != 0 or not lines:
        fail("benchmark exited with code %d" % code, code or 1)
    for line in lines[:-1]:
        print(line)
    try:
        report = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result")

    metrics = report["metrics"]
    if a.trace == 0:
        metrics["peak_mem_mb"] = {"value": peak_mb, "unit": "MB"}
        print("  %-40s %16.6g MB (peak resident memory of the process)" % ("peak_mem_mb", peak_mb))
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in wanted}
    got = {k: v["unit"] for k, v in metrics.items()}
    if want != got:
        fail("metrics disagree with BENCHMARK.json: missing %s, unexpected %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))), 5)

    fingerprint = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "ocaml": report["method"]["ocaml"],
        "build_profile": "release",
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "seed": a.seed,
        "workload": a.workload,
        "run_seconds": a.seconds,
        "build_s": build_s,
    }
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    with open(os.path.join(ROOT, ".perfbench", "results", tag + ".json"), "w") as f:
        json.dump({"fingerprint": fingerprint, "report": report}, f, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
