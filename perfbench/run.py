#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload resnet50_f32 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Each run starts
the perfbench binary in a fresh private directory with every inherited EXO_*
variable removed, forwards its output and removes the directory afterwards.
The last line of standard output is the result object; the line before it
records the machine. Traced runs leave trace.json and layers.txt under
<build dir>/perfbench-out/<workload>-seed<N>/.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170

# Every workload the binary runs, with the per-layer metrics it must drive
# above zero (self-check). lowp_mix is not in BENCHMARK.json (see README.md)
# but is checked here too.
EXERCISED = {
    "resnet50_f32": ["exo.jit.compiles", "gemm.plan.builds", "dnn.im2row_ms",
                     "gemm.sgemm_ms", "gemm.resnet50.L01_ms",
                     "gemm.resnet50.L20_ms", "gemm.packA_ms", "gemm.ukr_ms",
                     "gemm.pct_peak", "gemm.plan.lookup_us"],
    "lowp_mix": ["gemm.plan.builds", "gemm.f16.ukr_ms", "gemm.bf16.ukr_ms",
                 "gemm.i8.ukr_ms", "gemm.f16.gflops", "gemm.bf16.gflops",
                 "gemm.i8.gops"],
    "gemmd_small": ["gemm.plan.builds", "gemm.gov.width_avg", "ipc.stage_us",
                    "ipc.collect_us", "daemon.request_us",
                    "daemon.local_us_p50", "ipc.call_us_p99"],
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    return target / "perfbench"


def build(bdir):
    """Configures (once) and builds the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "gemm" / "Engine.h").is_file():
        fail(f"no repository sources under {ROOT}/src; nothing to build")
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(bdir / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir)])
        steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            # Build output goes to stderr: stdout carries only results.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(cmd))
    return bdir / "perfbench"


def machine():
    """CPU, core count, vector ISA flags, compiler and source identity."""
    model, flags = platform.processor() or "unknown", []
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name") and model in ("unknown", "", "x86_64"):
                model = line.split(":", 1)[1].strip()
            if line.startswith("flags"):
                flags = line.split(":", 1)[1].split()
                break
    except OSError:
        pass
    wanted = ("avx2", "fma", "f16c", "avx512f", "avx512_vnni", "avx512_bf16",
              "avx512_fp16", "avx_vnni", "amx_bf16", "amx_int8", "asimd")
    cc = subprocess.run(["cc", "--version"], capture_output=True, text=True)
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    digest = hashlib.sha256()
    for top in ("src", HERE.name):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                digest.update(str(p.relative_to(ROOT)).encode())
                digest.update(p.read_bytes())
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "isa": [f for f in wanted if f in flags],
        "cc": (cc.stdout.splitlines() or ["unknown"])[0],
        "git_commit": commit.stdout.strip() if commit.returncode == 0 else None,
        "source_sha256": digest.hexdigest()[:16],
    }


def run_once(exe, workload, seed, seconds, trace, extra=(), echo=True):
    """Runs the binary once; returns (exit code, result or None, its line)."""
    bdir = exe.parent
    out = bdir / "perfbench-out" / f"{workload}-seed{seed}"
    out.mkdir(parents=True, exist_ok=True)
    rundir = bdir / f"perfbench-run-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir()
    env = {k: v for k, v in os.environ.items() if not k.startswith("EXO_")}
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
           *extra]
    proc = subprocess.Popen(cmd, cwd=rundir, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return 1, None, ""
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    lines = stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print(f"perfbench: {workload}: no result line", file=sys.stderr)
        return proc.returncode or 1, None, ""
    return proc.returncode, result, lines[-1]


def self_check(exe):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in EXERCISED:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res, _ = run_once(exe, wl, 1, 2, trace,
                                 extra=("--setup-reps", "1"), echo=False)
            tag = f"{wl} --trace {trace}"
            if code != 0 or res is None:
                problems.append(f"{tag}: exit {code}, no result")
                continue
            if not res["correct"] or res["failed"]:
                problems.append(f"{tag}: {res['failed']} verification misses")
            got = res["metrics"]
            for m in spec[key]:
                if m["name"] not in got:
                    problems.append(f"{tag}: metric {m['name']} missing")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{tag}: {m['name']} unit is "
                                    f"{got[m['name']]['unit']}, not {m['unit']}")
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{tag}: undeclared metrics {sorted(extra)}")
            must = [m["name"] for m in spec[key]] if trace == 0 else EXERCISED[wl]
            for name in must:
                if name in got and not got[name]["value"] > 0:
                    problems.append(f"{tag}: {name} is {got[name]['value']}")
            print(f"self-check {tag}: {len(got)} metrics, "
                  f"{res['attempted']} ops, {res['failed']} failed")
    for p in problems:
        print("self-check FAIL: " + p)
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    exe = build(build_dir())
    if args.self_check:
        sys.exit(self_check(exe))
    if not args.workload:
        fail("--workload is required")
    ident = json.dumps(machine())
    code, res, line = run_once(exe, args.workload, args.seed, args.seconds,
                               args.trace)
    if res is None:
        sys.exit(code or 1)
    out = exe.parent / "perfbench-out" / f"{args.workload}-seed{args.seed}"
    (out / "machine.json").write_text(ident + "\n")
    print("machine: " + ident)
    print(line)
    sys.exit(code)


if __name__ == "__main__":
    main()
