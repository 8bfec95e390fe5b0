"""One benchmark pass in a fresh interpreter.

Usage: worker.py SPEC_JSON SPAWN_TIME

SPEC_JSON names the jobs, the output directory, the result path and
whether to trace.  SPAWN_TIME is the parent's ``time.perf_counter()``
just before it started this process (CLOCK_MONOTONIC, shared by both), so
set-up time covers interpreter start and ``import sweyl``.

The worker times the import, runs each job through ``sweyl.cli.main`` in
this process, one after another, each into a fresh output directory,
times a reference kernel before the first job and after each job, then,
outside the timed region, checks every job's output and writes one JSON
result.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction


def _run_job(cli_main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = cli_main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing job is a failed job, not a dead pass
            traceback.print_exc()
            rc = -1
    return rc, buf.getvalue()


def calibrate() -> float:
    """Time a fixed reference kernel that does not use sweyl.

    It mixes the kinds of work the workloads do: exact Fraction sums
    (interpreter and big integers), many tiny numpy calls, and one
    three-operand einsum (memory traffic).  Timed around every job, it
    tracks the host's speed, which drifts by tens of percent over minutes
    on shared machines.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 2000):
        acc += Fraction(-1 if k % 2 else 1, k * k + 1)
    v = np.ones(3)
    for _ in range(8000):
        v = np.exp(-1j * 0.001 * v.real) * 1.0
    a = np.ones((200, 16, 16), dtype=complex)
    np.einsum("nab,bc,ndc->nad", a, a[0], a)
    return time.perf_counter() - t0


def _provenance() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    spawned = float(sys.argv[2])

    import sweyl.cli
    ready = time.perf_counter()

    result = {"setup_s": ready - spawned, "sweyl": sweyl.cli.__file__}
    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    records = []
    cal = [calibrate()]
    for i, job in enumerate(spec["jobs"]):
        argv = job["argv"] + ["--out", os.path.join(spec["out"], f"job{i}")]
        scope = (tracer.span(f"cli.main.{argv[0]}") if tracer
                 else contextlib.nullcontext())
        t0 = time.perf_counter()
        with scope:
            rc, log = _run_job(sweyl.cli.main, argv)
        records.append({"name": job["name"], "argv": argv, "rc": rc,
                        "time_s": time.perf_counter() - t0, "log": log})
        cal.append(calibrate())
    result["wall_s"] = sum(rec["time_s"] for rec in records)
    result["cal_s"] = cal
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.dump()

    from checks import check_job
    for rec in records:
        problems, margin = [f"exit code {rec['rc']}"], None
        if rec["rc"] == 0:
            try:
                problems, margin = check_job(rec["argv"], rec["argv"][-1])
            except Exception:  # unreadable output fails the job
                problems = [traceback.format_exc()]
        rec["problems"] = problems
        rec["margin"] = margin
        if not problems:
            rec["log"] = ""
    result["jobs"] = records
    result["provenance"] = _provenance()

    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
