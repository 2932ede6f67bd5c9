#!/usr/bin/env python3
"""glrfusion benchmark: one command for every workload, untraced or traced.

Run from the repository root::

    python3 perfbench/run.py --workload mc-small --seed 1 --seconds 16 --trace 0

Workloads: mc-small, mc-large, scan-image, fuse-chain (see workloads.py and
design.json for why each exists).  The process pins itself to one CPU and
BLAS to one thread before numpy is imported, and calls the library with
``jobs=1``, so the numbers measure one core.

``--trace 0`` times whole rounds of the workload for ``--seconds`` and
reports the end-to-end metrics:

* ``items_per_s``: trials (mc-*), grid cells (scan-image) or fused data
  sets (fuse-chain) per second, at reference speed;
* ``setup_s``: time from process start to the first timed call (imports,
  building channels and inputs, CLI simulate on scan-image), the median of
  SETUP_PROBES fresh processes that do only that, at reference speed.  The
  probes run between steps, spread over the timed phase; their time is not
  counted as step time;
* ``peak_rss_mb``: peak resident memory of the process.

The machine the benchmark was defined on is shared, and other tenants slow
each vCPU by up to 25% for tens of seconds at a time.  So a helper process
on the same CPU (reference.py) times a fixed kernel after every half second
of steps and around every probe, and each stretch of step time and each
probe's wall time is multiplied by REFERENCE_S over the mean of the kernel
times just before and after it.  The helper shares no state with the
library's process, so a slowdown of the library shows in the scaled
figures and a slowdown of the CPU does not.  Wall-clock figures are
recorded beside them (``.raw``).

``--trace 1`` runs a fixed number of rounds, each step first untraced and
then traced, and reports per-layer self times and exact call counts from
the spans (written to ``.perfbench_out/``).  Either way the outputs are
checked against the workload's oracles afterwards; an operation that
raised, returned a non-finite value or failed its oracle makes the result
``correct: false`` and the command exit 1.  The last line of standard
output is the result as one JSON object.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 7
# Steps between two timings of the reference kernel, in seconds: short
# beside the tens of seconds over which the machine's speed drifts.
REFERENCE_EVERY_S = 0.5
# CPU time of one reference-kernel run on an idle core of the machine the
# benchmark was defined on (2 vCPU Intel Xeon VM, OpenBLAS on one thread).
# It only sets the unit of scaled times: seconds at that machine's idle speed.
REFERENCE_S = 0.015


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc-small", "mc-large", "scan-image", "fuse-chain"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up the workload in DIR, print the monotonic clock, exit.
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "glrfusion").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def declared_units(trace: int) -> dict[str, str]:
    """Name and unit of each metric BENCHMARK.json declares for this kind of run."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


class Reference:
    """The reference-kernel helper process (reference.py), on this process's CPU."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "reference.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def seconds(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference helper exited {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def setup_probe(args, probe_dir: Path) -> float:
    """Wall time of one fresh process from start to ready to time its first call.

    The child (this script with ``--setup-probe``) imports everything,
    prepares the workload in ``probe_dir`` and prints the monotonic clock,
    which on Linux is shared by all processes.
    """
    probe_dir.mkdir()
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe", str(probe_dir)]
    started = time.monotonic()
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    shutil.rmtree(probe_dir, ignore_errors=True)
    return float(done.stdout.split()[-1]) - started


def timed_phase(workload, api, args, workdir: Path, reference: Reference) -> dict:
    """Whole rounds until ``args.seconds`` of steps have passed.

    Returns per-key items and raw and scaled seconds, and the raw and
    scaled set-up probe times.  The reference kernel is timed whenever
    REFERENCE_EVERY_S of steps have run since it last was, and around each
    set-up probe; the steps in between are scaled by the mean of the two
    kernel times that bracket them.  One probe runs before the first step
    and the rest at even intervals between steps; probe and kernel time is
    left out of the clock.
    """
    out = {"items": defaultdict(int), "raw": defaultdict(float),
           "scaled": defaultdict(float), "setup_raw": [], "setup_scaled": []}
    ref = [reference.seconds()]
    pending = defaultdict(float)

    def speed() -> float:
        """Time the kernel; scale factor for the time since it was last timed."""
        ref.append(reference.seconds())
        return REFERENCE_S / (0.5 * (ref[-2] + ref[-1]))

    def flush() -> None:
        factor = speed()
        for key, seconds in pending.items():
            out["scaled"][key] += seconds * factor
        pending.clear()

    def probe() -> None:
        if pending:
            flush()
        seconds = setup_probe(args, workdir / f"probe-{len(out['setup_raw'])}")
        out["setup_raw"].append(seconds)
        out["setup_scaled"].append(seconds * speed())

    interval = args.seconds / (SETUP_PROBES - 1)
    probe()
    step_s = 0.0
    rounds = 0
    while rounds == 0 or step_s < args.seconds:
        for key, step in workload.steps(api, rounds):
            t0 = time.perf_counter()
            out["items"][key] += step()
            elapsed = time.perf_counter() - t0
            out["raw"][key] += elapsed
            pending[key] += elapsed
            step_s += elapsed
            if len(out["setup_raw"]) < min(step_s // interval + 1, SETUP_PROBES):
                probe()
            elif sum(pending.values()) >= REFERENCE_EVERY_S:
                flush()
        rounds += 1
    if pending:
        flush()
    while len(out["setup_raw"]) < SETUP_PROBES:
        probe()
    out["rounds"] = rounds
    out["reference_s"] = ref
    return out


def traced_phase(workload, plain_api, traced_api, tracer):
    """Fixed rounds; every step runs untraced, then traced, so drift hits both alike."""
    root = tracer.entry("bench.step", lambda step: step())
    untraced_s = traced_s = 0.0
    bytes_written = 0
    for round_index in range(workload.trace_rounds):
        pairs = zip(workload.steps(plain_api, round_index),
                    workload.steps(traced_api, round_index))
        for (_, plain), (_, traced) in pairs:
            t0 = time.perf_counter()
            plain()
            untraced_s += time.perf_counter() - t0
            before = workload.bytes_written
            with tracer:
                t0 = time.perf_counter()
                root(traced)
                traced_s += time.perf_counter() - t0
            bytes_written += workload.bytes_written - before
    metrics = tracer.metrics()
    metrics["trace.wall_s"] = traced_s
    metrics["trace.untraced_wall_s"] = untraced_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics["cli.bytes_written"] = bytes_written
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for this process and, by inheritance, the reference helper and
    # set-up probes: the machine's slowdowns differ between its vCPUs, and the
    # reference only tracks the one it shares.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # BLAS reads its thread count once, when numpy loads it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "glrfusion" / "__init__.py").is_file():
        print(f"error: no glrfusion sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import glrfusion
    import tracer as tracer_mod
    import workloads

    if Path(glrfusion.__file__).resolve().parent != (SRC / "glrfusion").resolve():
        print(f"error: imported glrfusion from {glrfusion.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed, Path(args.setup_probe)).prepare()
        print(time.monotonic())
        return 0

    units = declared_units(args.trace)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    detail = {}
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        plain_api = workloads.Api(tracer_mod.Tracer(enabled=False))
        if args.trace:
            tracer = tracer_mod.Tracer(enabled=True)
            metrics = traced_phase(workload, plain_api, workloads.Api(tracer), tracer)
            detail["missing_targets"] = tracer.missing
        else:
            reference = Reference()
            try:
                timed = timed_phase(workload, plain_api, args, workdir, reference)
            finally:
                reference.close()
            items = timed["items"]
            total = sum(items.values())
            metrics = {
                "items_per_s": total / sum(timed["scaled"].values()),
                "setup_s": statistics.median(timed["setup_scaled"]),
                "peak_rss_mb": peak_rss_mb(),
            }
            for key in items:
                detail[key] = items[key] / timed["scaled"][key]
                detail[f"{key}.raw"] = items[key] / timed["raw"][key]
            ref = timed["reference_s"]
            detail.update({
                "items_per_s.raw": total / sum(timed["raw"].values()),
                "setup_s.raw": statistics.median(timed["setup_raw"]),
                "rounds": timed["rounds"],
                "reference_ms_median": 1e3 * statistics.median(ref),
                "reference_ms_range": [1e3 * min(ref), 1e3 * max(ref)],
                "setup_probes_s.raw": timed["setup_raw"],
            })
        try:
            problems = workload.check()
        except Exception as exc:  # an oracle that cannot run is a failed check
            problems = [f"oracle raised {type(exc).__name__}: {exc}"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass

    # An operation that failed its oracle counts as failed, like one that raised.
    failed = min(workload.failed + len(problems), workload.attempted)
    detail.update(workload.summary())
    detail["item_unit"] = workload.item_unit
    detail["failed_frac"] = failed / max(workload.attempted, 1)
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    stamp = environment(args.seed)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": stamp, "metrics": metrics, "detail": detail,
              "errors": workload.errors, "oracle_problems": problems}
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.dump(OUT / f"{stem}-spans.json")

    for name, value in metrics.items():
        print(f"{name:45s} {value:>16.6g} {units[name]}")
    for name, value in detail.items():
        if isinstance(value, (int, float)):
            print(f"{name:45s} {value:>16.6g}")
    print(f"{'attempted / failed':45s} {workload.attempted:>10d} / {failed}")
    for message in workload.errors + problems:
        print(f"FAILED: {message}", file=sys.stderr)
    print(f"environment: {json.dumps(stamp)}")
    correct = not (workload.errors or problems)
    print(json.dumps({
        "correct": correct,
        "attempted": workload.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
