#!/usr/bin/env python3
"""sweyl benchmark: cold CLI job lists, checked outputs, traced layers.

Usage (from the repository root):

    python3 perfbench/run.py --workload spin_sectors --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client.  A pass starts one fresh
worker interpreter, which times ``import sweyl.cli`` and then runs the
workload's job list (``perfbench/workloads.py``) through
``sweyl.cli.main`` one job after another.  A run repeats passes until
``--seconds`` have been spent measuring, and reports medians over its
passes.  BLAS/OpenMP use one thread.  The seed only sets the jobs' CLI
``--seed`` values, never sizes.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json:

* ``wall_ref_s``: time-to-result of the whole job list, set-up excluded,
  at a fixed reference host speed.  The worker times a reference kernel
  (``worker.calibrate``, no sweyl code) before the first job and after
  every job; each job's time is scaled by ``REF_CAL_S`` over the mean of
  the two kernel times around it, and the metric sums each job's median
  over passes.  On a shared 2-vCPU host the raw times of a run drift by
  20-30 % with the host's speed from one minute to the next; scaling by
  the kernel cancels most of that drift (in trials the run-to-run spread
  of the noisiest workloads fell two- to threefold), so a change to the
  program stays visible;
* ``setup_s``: worker start to ``import sweyl.cli`` done, scaled the same
  way by the kernel timed right after the import (raw spread 0.35, scaled
  0.05 over ten seeds);
* ``peak_rss_mb``: the worker's peak resident set.

Raw times are printed for every pass, and ``--trace 1`` gives them per
command together with ``host.cal_s``, the median kernel time.

An untraced run makes at least ``MIN_PASSES`` passes.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics.  Traced passes give span counts and self times (means
over traced passes, so that self times plus ``trace.unattributed_s`` add
up to ``trace.wall_s``); untraced passes give the per-command and per-S
job times, the scaling slope and the tracing overhead.

Every job's output is checked after its pass; a job fails if it exits
non-zero or its output check fails.  The last stdout line is the result
JSON; lines before it give provenance and every metric with its unit.
Spans of the last traced pass are kept in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

MIN_PASSES = 3  # untraced passes per run, so that medians mean something
REF_CAL_S = 0.1  # reference-kernel time that defines the reference speed
RUN_LIMIT_S = 170  # a run must end within 180 s
COMMANDS = ("purities", "phasespace", "verify", "duality", "star")


class PassFailed(RuntimeError):
    """A worker died or timed out, so its pass has no result."""


def _metric_defs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {
        0: [(m["name"], m["unit"]) for m in bench["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in bench["per_layer"]],
    }


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_worker(work: str, tag: str, jobs: list, trace: bool,
                deadline: float) -> dict:
    pass_dir = os.path.join(work, tag)
    os.makedirs(pass_dir)
    spec_path = os.path.join(pass_dir, "spec.json")
    result_path = os.path.join(pass_dir, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"jobs": jobs, "out": pass_dir, "result": result_path,
                   "trace": trace}, fh)
    timeout = max(1.0, deadline - time.perf_counter())
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path,
         repr(spawned)],
        env=_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        log, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassFailed(f"{tag}: worker timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise PassFailed(f"{tag}: worker exited {proc.returncode}\n"
                         + log.decode(errors="replace"))
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if not os.path.realpath(result["sweyl"]).startswith(
            os.path.realpath(SRC) + os.sep):
        raise PassFailed(f"{tag}: imported sweyl from {result['sweyl']}")
    shutil.rmtree(pass_dir)
    return result


def _slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    return num / sum((a - mx) ** 2 for a in lx)


def _job_medians(passes: list) -> dict:
    """Each job's median time-to-result over the passes."""
    return {job["name"]: statistics.median(p["jobs"][i]["time_s"] for p in passes)
            for i, job in enumerate(passes[0]["jobs"])}


def _job_times(passes: list) -> dict:
    """Per-command and per-S time-to-result, from per-job medians."""
    per_job = _job_medians(passes)
    out = {f"cli.{cmd}.time_s": sum(t for n, t in per_job.items()
                                    if n.split(".")[0] == cmd)
           for cmd in COMMANDS}
    dims, times = [], []
    for label, tag, _, _ in workloads.SPIN_LADDER:
        t = per_job.get(f"purities.{tag}", 0.0)
        out[f"purities.{tag}.time_s"] = t
        if t > 0:
            dims.append(2 * Fraction(label) + 1)
            times.append(t)
    out["purities.slope_d"] = _slope(dims, times) if len(dims) > 1 else 0.0
    return out


def _margins(passes: list) -> dict:
    margins = [j["margin"] for p in passes for j in p["jobs"]
               if j["margin"] is not None]
    verify_margins = [j["margin"] for p in passes for j in p["jobs"]
                      if j["margin"] is not None and j["argv"][0] == "verify"]
    return {"verify.max_margin": max(margins, default=0.0),
            "verify.run_checks.max_margin": max(verify_margins, default=0.0)}


def _layer_metrics(traced: list, plain: list) -> dict:
    """Per-layer metrics: spans of traced passes, times of untraced ones."""
    summaries = [tracing.summarize(p["trace"]) for p in traced]
    counts = [p["trace"]["counts"] for p in traced]
    if any(c != counts[0] for c in counts) or any(
            s["calls"] != summaries[0]["calls"] for s in summaries):
        print("warning: span or layer counts differ between traced passes",
              file=sys.stderr)
    calls = summaries[0]["calls"]

    def mean_of(key, name):
        return statistics.fmean(s[key].get(name, 0.0) for s in summaries)

    out = {}
    span_names = {t[2] for t in tracing.TARGETS}
    span_names.update(f"cli.main.{cmd}" for cmd in COMMANDS)
    for name in span_names:
        out[f"{name}.self_s"] = mean_of("self_s", name)
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in tracing.COUNTS:
        out[name] = counts[0].get(name, 0)
    block_calls = calls.get("models.irrep_block", 0)
    builds = counts[0].get("models.irrep_block.builds", 0)
    out["models.irrep_block.hit_ratio"] = (
        1 - builds / block_calls if block_calls else 0.0)
    duality_s = mean_of("total_s", "gfd.duality_check")
    out["gfd.duality_check.samples_per_s"] = (
        counts[0].get("gfd.duality_check.samples", 0) / duality_s
        if duality_s else 0.0)

    traced_wall = statistics.fmean(p["wall_s"] for p in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.unattributed_s"] = traced_wall - statistics.fmean(
        s["roots_s"] for s in summaries)
    # Both sides at reference speed, so host drift between passes cancels.
    out["trace.overhead_s"] = (statistics.fmean(map(_scaled_wall, traced))
                               - statistics.fmean(map(_scaled_wall, plain)))
    out["host.cal_s"] = statistics.median(c for p in plain for c in p["cal_s"])
    out.update(_job_times(plain))
    out.update(_margins(plain))
    return out


def _speed_factors(p: dict) -> list[float]:
    """Per job: REF_CAL_S over the mean reference-kernel time around it."""
    cal = p["cal_s"]
    return [2 * REF_CAL_S / (a + b) for a, b in zip(cal, cal[1:])]


def _scaled_wall(p: dict) -> float:
    return sum(j["time_s"] * f for j, f in zip(p["jobs"], _speed_factors(p)))


def _e2e_metrics(passes: list) -> dict:
    wall_ref = 0.0
    for i in range(len(passes[0]["jobs"])):
        wall_ref += statistics.median(
            p["jobs"][i]["time_s"] * _speed_factors(p)[i] for p in passes)
    return {
        "setup_s": statistics.median(
            p["setup_s"] * REF_CAL_S / p["cal_s"][0] for p in passes),
        "wall_ref_s": wall_ref,
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
    }


def _revision() -> dict:
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"git_revision": rev, "src_sha256": digest.hexdigest()}


def _print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")


def _measure(work: str, jobs: list, seconds: float, trace: bool,
             deadline: float) -> tuple[list, list]:
    """Run passes for ``seconds``; with ``trace``, alternate traced ones.

    Untimed runs need at least MIN_PASSES untraced passes, traced runs one
    of each kind.  No pass starts that could overrun the deadline.
    """
    plain, traced = [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        trace_next = trace and len(traced) < len(plain)
        t0 = time.perf_counter()
        res = _run_worker(work, f"pass{len(plain) + len(traced)}", jobs,
                          trace_next, deadline)
        longest = max(longest, time.perf_counter() - t0)
        (traced if trace_next else plain).append(res)
        now = time.perf_counter()
        enough = traced if trace else len(plain) >= MIN_PASSES
        if (now - start >= seconds and enough) or now + 1.5 * longest > deadline:
            return plain, traced


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sweyl", "cli.py")):
        print(f"error: no sweyl sources under {SRC}", file=sys.stderr)
        return 2
    defs = _metric_defs()[args.trace]

    deadline = time.perf_counter() + RUN_LIMIT_S
    jobs = workloads.jobs(args.workload, args.seed)
    problems = workloads.self_check(args.workload, args.seed)

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        plain, traced = _measure(work, jobs, args.seconds, bool(args.trace),
                                 deadline)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if traced:
        with open(os.path.join(OUT, f"{args.workload}.spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(traced[-1]["trace"], fh)

    if args.trace and not traced:
        print("error: no traced pass fitted in the time limit", file=sys.stderr)
        return 1

    passes = plain + traced
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = 0
    for p in passes:
        for job in p["jobs"]:
            if job["problems"]:
                failed += 1
                print(f"FAIL {job['name']}: {'; '.join(job['problems'])}\n"
                      f"{job['log']}", file=sys.stderr)
    for msg in problems:
        print(f"FAIL self-check: {msg}", file=sys.stderr)

    if args.trace:
        computed = _layer_metrics(traced, plain)
    else:
        computed = _e2e_metrics(plain)
    metrics = {name: {"value": computed[name], "unit": unit}
               for name, unit in defs}

    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "threads": 1, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **_revision(), **passes[0]["provenance"],
        "jobs": [j["argv"] for j in jobs],
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(f"{args.workload}: {len(plain)} untraced + {len(traced)} traced "
          f"passes, ops_failed {failed}/{attempted}")
    for p in passes:
        print(f"  pass {'traced' if 'trace' in p else 'untraced':8s} setup "
              f"{p['setup_s']:.4f} s, jobs "
              + " ".join(f"{j['time_s']:.4f}" for j in p["jobs"])
              + " s, reference kernel "
              + " ".join(f"{c:.4f}" for c in p["cal_s"]) + " s")
    if args.trace:
        attributed = sum(v for k, v in computed.items() if k.endswith(".self_s"))
        print(f"  self times {attributed:.4f} s + unattributed "
              f"{computed['trace.unattributed_s']:.4f} s = traced wall "
              f"{computed['trace.wall_s']:.4f} s")
    _print_metrics(metrics)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
