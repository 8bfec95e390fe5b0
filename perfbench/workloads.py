"""Job lists of the three benchmark workloads.

A job is one ``sweyl`` CLI invocation (its argv, without ``--out``).  The
benchmark seed only picks each job's CLI ``--seed`` (Haar states,
Monte-Carlo samples, random star operators); sizes never depend on it, so
every run does the same amount of work.

Why these workloads:

* ``spin_sectors`` climbs a spin ladder with cold ``purities`` runs.  Exact
  Clebsch-Gordan Racah sums (``clebsch``) and dense sector-block builds
  (``models``, d**4 memory) dominate; ``phase_space`` and ``render`` are
  idle.  Every S is distinct, so the in-process CG cache never hides the
  cold cost a CLI user pays.
* ``spin_phase`` is spin phase space at large d with few quadrature nodes:
  kernel-stack and harmonic contractions (``phase_space``), rendering and
  the duality Monte Carlo (``gfd``) dominate; ``clebsch`` is minor.
* ``qubit_grid`` calls the same ``phase_space``/``gfd`` functions at the
  opposite shape, many nodes and tiny d: per-node Python calls
  (``point_unitary``, ``kron``), grid construction and per-sample loops
  dominate.  A change tuned for large d that costs small d shows here.
"""

from __future__ import annotations

import hashlib

WORKLOADS = ("spin_sectors", "spin_phase", "qubit_grid")

# Spin ladder of spin_sectors: (CLI label, metric tag, states, format).
SPIN_LADDER = (
    ("12", "S12", ("hw", "m=3", "haar"), "csv"),
    ("33/2", "S33_2", ("ghz", "m=1/2", "haar"), "json"),
    ("20", "S20", ("hw", "haar", "m=-7"), "csv"),
    ("45/2", "S45_2", ("ghz", "m=5/2", "haar"), "json"),
)


def _repeat(flag: str, values) -> list[str]:
    out = []
    for v in values:
        out += [flag, v]
    return out


def _templates(workload: str) -> list[tuple[str, list[str]]]:
    """(job name, argv without --seed/--out) for one workload."""
    if workload == "spin_sectors":
        return [
            (f"purities.{tag}",
             ["purities", "--qrt", "spin", "--spin-S", label]
             + _repeat("--state", states)
             + _repeat("--s", ("-1", "0", "1")) + ["--format", fmt])
            for label, tag, states, fmt in SPIN_LADDER
        ]
    if workload == "spin_phase":
        return [
            ("phasespace.S6",
             ["phasespace", "--qrt", "spin", "--spin-S", "6",
              "--state", "ghz", "--state", "hw", "--s", "-1", "--s", "0",
              "--grid", "64x128", "--projection", "robinson"]),
            ("verify.S8", ["verify", "--qrt", "spin", "--spin-S", "8"]),
            ("star.S2",
             ["star", "--qrt", "spin", "--spin-S", "2", "--s", "0", "--s", "1"]),
            ("duality.S4",
             ["duality", "--qrt", "spin", "--spin-S", "4", "--samples", "3000",
              "--s", "-1", "--s", "0"]),
        ]
    if workload == "qubit_grid":
        return [
            ("phasespace.mp4",
             ["phasespace", "--qrt", "multipartite", "--n", "4",
              "--state", "ghz", "--state", "haar", "--s", "-1", "--s", "0",
              "--grid", "64x128"]),
            ("verify.mp3", ["verify", "--qrt", "multipartite", "--n", "3"]),
            ("verify.fm4", ["verify", "--qrt", "fermionic", "--n", "4"]),
            ("duality.mp3",
             ["duality", "--qrt", "multipartite", "--n", "3",
              "--samples", "3000", "--s", "-1", "--s", "0"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def job_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def jobs(workload: str, seed: int) -> list[dict]:
    """The workload's job list for one benchmark seed."""
    return [
        {"name": name,
         "argv": argv + ["--seed", str(job_seed(workload, seed, i))]}
        for i, (name, argv) in enumerate(_templates(workload))
    ]


def sizes(job_list: list[dict]) -> list[tuple]:
    """A job list with its seeds masked: everything that sets the work."""
    out = []
    for job in job_list:
        argv = list(job["argv"])
        argv[argv.index("--seed") + 1] = "*"
        out.append((job["name"], tuple(argv)))
    return out


def self_check(workload: str, seed: int) -> list[str]:
    """Problems with the seed contract; empty when the job list is sound.

    The job list must be a pure function of the seed, and another seed
    must give the same sizes.
    """
    problems = []
    if jobs(workload, seed) != jobs(workload, seed):
        problems.append("job list is not a pure function of the seed")
    other = seed + 1
    if sizes(jobs(workload, seed)) != sizes(jobs(workload, other)):
        problems.append(f"seeds {seed} and {other} give different sizes")
    return problems
