"""Output checks for benchmark jobs, run after the timed job list.

Each check reads the files a job wrote and compares them with an
independent route where one exists:

* purities: hw and ``m=`` states against the closed-form squared CG
  coefficient, every spectrum's sum against Tr rho**2, and each filtered
  purity against ``purity * tau**(-s)``;
* phasespace: CSV values at sampled nodes against the pointwise
  ``phase_space.symbol``, and the PPM header against the grid;
* verify, duality, star: every check in the JSON report passes.

``check_job`` returns ``(problems, margin)``: a list of failure messages
(empty when the output is right) and the largest check value/bound read
from a JSON report (None for jobs without one).
"""

from __future__ import annotations

import csv
import itertools
import json
import os

import numpy as np

from sweyl import gfd, phase_space as ps
from sweyl.clebsch import HalfInt
from sweyl.models import MultipartiteModel, SpinModel
from sweyl.verify import make_model

TOL = 1e-9
FIELD_SAMPLES = 24


def _options(argv: list[str]) -> dict:
    """Flag -> list of values, for the flags a job list uses."""
    opts: dict = {}
    for i in range(1, len(argv) - 1, 2):
        opts.setdefault(argv[i], []).append(argv[i + 1])
    return opts


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= TOL * (1 + abs(ref))


def _read_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _check_purities(argv, out_dir) -> list[str]:
    opts = _options(argv)
    S = HalfInt.of(opts["--spin-S"][0])
    model = SpinModel(S)
    svals = [float(s) for s in opts["--s"]]
    seed = int(opts["--seed"][0])
    if opts.get("--format", ["csv"])[0] == "json":
        with open(os.path.join(out_dir, "purities.json"), encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
    else:
        rows = _read_rows(os.path.join(out_dir, "purities.csv"))
    problems = []
    expected = len(opts["--state"]) * len(svals) * (S.twice + 1)
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    for sel in opts["--state"]:
        label = sel.replace("=", "")
        psi = model.named_state(sel, seed=seed)
        rho = np.outer(psi, psi.conj())
        tr_rho2 = float(np.real(np.trace(rho @ rho)))
        m = None  # the closed form covers basis states only
        if sel == "hw":
            m = S
        elif sel.startswith("m="):
            m = HalfInt.of(sel[2:])
        for s in svals:
            mine = [r for r in rows
                    if r["state"] == label and float(r["s"]) == s]
            total = sum(float(r["purity"]) for r in mine)
            if not _close(total, tr_rho2):
                problems.append(f"{sel} s={s}: spectrum sums to {total}")
            for r in mine:
                lam = int(r["sector"])
                purity = float(r["purity"])
                tau = float(r["tau"])
                if not _close(float(r["phase_purity"]), purity * tau ** (-s)):
                    problems.append(f"{sel} s={s} sector {lam}: phase purity")
                if m is not None:
                    ref = gfd.closed_form_spin_purity(S, m, lam)
                    if not _close(purity, ref):
                        problems.append(
                            f"{sel} sector {lam}: purity {purity} != {ref}")
    return problems


def _check_phasespace(argv, out_dir) -> list[str]:
    opts = _options(argv)
    model = make_model(opts["--qrt"][0], opts.get("--spin-S", ["2"])[0],
                       int(opts.get("--n", ["2"])[0]))
    seed = int(opts["--seed"][0])
    ntheta, nphi = (int(t) for t in opts["--grid"][0].split("x"))
    rng = np.random.default_rng(seed)
    problems = []
    for sel in opts["--state"]:
        psi = model.named_state(sel, seed=seed)
        rho = np.outer(psi, psi.conj())
        for s in (float(v) for v in opts["--s"]):
            tag = f"{sel.replace('=', '')}_s{s:+g}"
            rows = _read_rows(os.path.join(out_dir, f"field_{tag}.csv"))
            if len(rows) != ntheta * nphi:
                problems.append(f"{tag}: {len(rows)} field rows")
                continue
            spec = ps.KernelSpec.cahill_glauber(s)
            if isinstance(model, SpinModel):
                target, A = model, rho
            else:
                # Exact one-qubit marginal with the measure factor of the rest.
                rest = model.dim // 2
                A = np.trace(rho.reshape(2, rest, 2, rest), axis1=1, axis2=3)
                A = A * float(rest) ** ((s - 1) / 2)
                target = MultipartiteModel(1)
            for k in rng.choice(len(rows), size=FIELD_SAMPLES, replace=False):
                row = rows[k]
                point = (float(row["theta"]), float(row["phi"]))
                if target is not model:
                    point = (point,)
                ref = ps.symbol(target, A, point, spec).real
                if not _close(float(row["value"]), ref):
                    problems.append(f"{tag} node {k}: {row['value']} != {ref}")
            with open(os.path.join(out_dir, f"field_{tag}.ppm"),
                      encoding="utf-8") as fh:
                header = [ln.strip() for ln in itertools.islice(fh, 8)
                          if not ln.startswith("#")]
            if header[:3] != ["P3", f"{nphi} {ntheta}", "255"]:
                problems.append(f"{tag}: PPM header {header[:3]}")
    return problems


def _check_report(path) -> tuple[list[str], float | None]:
    with open(path, encoding="utf-8") as fh:
        checks = json.load(fh)["checks"]
    if not checks:
        return [f"{os.path.basename(path)} has no checks"], None
    problems = [f"check {c['name']} failed: {c['value']} > {c['bound']}"
                for c in checks if not c["passed"]]
    margin = max(c["value"] / c["bound"] for c in checks)
    return problems, margin


def check_job(argv: list[str], out_dir: str) -> tuple[list[str], float | None]:
    command = argv[0]
    if command == "purities":
        return _check_purities(argv, out_dir), None
    if command == "phasespace":
        return _check_phasespace(argv, out_dir), None
    return _check_report(os.path.join(out_dir, f"{command}.json"))
