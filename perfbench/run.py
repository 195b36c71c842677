#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--seconds S]
    python3 perfbench/run.py --selftest

Run from the repository root. Builds perfbench/ (which pulls in the VM
libraries from src/) into $CARGO_TARGET_DIR (default .bench_build), then runs
one workload. Its standard output ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. Build output goes to stderr.

--smoke runs every workload BENCHMARK.json names briefly, traced and
untraced, and checks that each output carries exactly the metrics
BENCHMARK.json names: every end-to-end metric untraced, every per-layer
metric traced. --selftest runs the statistics helpers' tests.
"""

import argparse
import ctypes
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The gated workloads are the ones BENCHMARK.json names; scimark-<profile>
# takes any engine profile name. service-mix and service-alloc are built
# and runnable but not gated (README.md, "Ungated workloads").
WORKLOADS = ["scimark-clr11", "scimark-mono023", "scimark-rotor10",
             "scimark-clr11.vec", "coldstart", "warmstart", "service-rtt",
             "service-mix", "service-alloc"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds perfbench; returns the build directory."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           cwd=ROOT)
        if r.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            sys.exit(2)
    return out


def revision():
    """Git revision when the tree is a checkout, else a hash of the sources
    the benchmark builds (src/ and perfbench/)."""
    try:
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                           cwd=ROOT, capture_output=True, text=True,
                           timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


ADDR_NO_RANDOMIZE = 0x0040000


def _fixed_layout():
    """Runs in the child before exec: turns off address-space randomization
    for the benchmark process, so code and heap layout, and with them the
    resident set, do not change from run to run (with it on, scimark's
    peak RSS moved 7.2-8.8 MiB between runs; with it off it repeats to the
    page). Left on where the kernel refuses the request."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def run_workload(binary, workload, seed, seconds, trace, out):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--revision", revision()]
    if trace:
        cmd += ["--trace-out",
                os.path.join(out, "trace-%s-%d.json" % (workload, seed))]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=170, preexec_fn=_fixed_layout)
    sys.stderr.write(r.stderr)
    return r.returncode, r.stdout


def parse_result(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        return None
    return res


def smoke(binary, out, seconds):
    """Every workload BENCHMARK.json names, traced and untraced: the output
    must be correct and carry exactly the metrics BENCHMARK.json names, in
    their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ok = True

    def fail(msg):
        nonlocal ok
        ok = False
        log("smoke: FAIL: " + msg)

    for w in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            tag = "%s trace=%d" % (w, trace)
            declared = {m["name"]: m["unit"] for m in
                        spec["per_layer" if trace else "end_to_end"]}
            code, stdout = run_workload(binary, w, 1, seconds, trace, out)
            res = parse_result(stdout)
            if code != 0 or res is None:
                fail("%s: exit %d, no result line" % (tag, code))
                continue
            if not res["correct"] or res["failed"] != 0:
                fail("%s: correct=%s failed=%d" % (tag, res["correct"],
                                                   res["failed"]))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if set(got) != set(declared):
                fail("%s: missing %s, not in BENCHMARK.json %s"
                     % (tag, sorted(set(declared) - set(got)),
                        sorted(set(got) - set(declared))))
            for name in set(got) & set(declared):
                if got[name] != declared[name]:
                    fail("%s: %s unit %s != %s" % (tag, name, got[name],
                                                   declared[name]))
            log("smoke: %s done (%d metrics)" % (tag, len(got)))
    log("smoke: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    out = build()
    if args.selftest:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]
                              ).returncode
    binary = os.path.join(out, "perfbench")
    if args.smoke:
        return smoke(binary, out, min(args.seconds, 2))
    if args.workload is None:
        ap.error("--workload is required")
    code, stdout = run_workload(binary, args.workload, args.seed,
                                args.seconds, bool(args.trace), out)
    if code != 0 or parse_result(stdout) is None:
        # Pass the diagnostics through but never a result line.
        sys.stderr.write(stdout)
        log("perfbench: %s exited %d without a result" % (args.workload, code))
        return code or 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
