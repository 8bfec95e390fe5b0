"""Command-line interface: purities | phasespace | duality | star | verify.

All commands are deterministic functions of (config, seed): identical
invocations produce byte-identical CSV/JSON/PPM outputs.  Exit codes:
0 success, 1 a numerical check or a linear-algebra routine
(``numpy.linalg.LinAlgError``) failed, 2 configuration/usage error,
including an ``--s`` whose filter factor ``tau**(-s)`` passes the float
range (such as ``--s 1000``), refused before any work.
"""

from __future__ import annotations

import math
import os
import re
import sys
import types

import numpy as np

from . import __version__, gfd, phase_space as ps, render, verify
from .clebsch import HalfInt
from .models import MultipartiteModel, admit


# {command: (help, {flag: (type, default, choices)})}.  A flag whose
# default is None appends (--state, --s); any other keeps its last value.
_COMMON = {"--qrt": (str, "spin", ("spin", "multipartite", "fermionic")),
           "--spin-S": (str, "2", ()), "--n": (int, 2, ()),
           "--seed": (int, 0, ()), "--out": (str, ".", ())}
_STATE, _S = {"--state": (str, None, ())}, {"--s": (float, None, ())}
_COMMANDS = {
    "purities": ("sector purity tables for states", {
        **_STATE, **_S, "--format": (str, "csv", ("csv", "json"))}),
    "phasespace": ("field heatmaps and tables", {
        **_STATE, **_S, "--grid": (str, "64x128", ()),
        "--projection": (str, "equirect", ("equirect", "robinson"))}),
    "duality": ("Haar-average duality Monte Carlo",
                {**_S, "--samples": (int, 2000, ())}),
    "star": ("twisted-product consistency check",
             {**_S, "--points": (int, 20, ())}),
    "verify": ("run the invariant check suite",
               {"--quad-tol": (float, 1e-8, ())}),
}
_USAGE = "usage: sweyl [-h] [--version] COMMAND [--flag VALUE ...]"


def _check_flags(args) -> None:
    """Refuse a bad ``--spin-S``, non-finite ``--s``, a non-positive or
    non-finite ``--quad-tol``, ``--points < 1`` and an empty ``--out`` or one
    in or under a non-directory (ValueError: exit 2) before any output."""
    try:
        S = HalfInt.of(args.spin_S)
        if S.twice < 1:
            raise ValueError("spin must be positive")
        if S.twice > sys.float_info.max:
            raise ValueError(f"2S of {args.spin_S} does not fit a float")
    except ValueError as exc:
        raise ValueError(f"bad --spin-S: {exc}") from None
    flags = vars(args)
    for s in flags.get("s") or ():
        if not math.isfinite(s):
            raise ValueError(f"--s must be finite, got {s}")
    tol = flags.get("quad_tol", 1.0)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"--quad-tol must be positive and finite, got {tol}")
    if flags.get("points", 1) < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    path = args.out  # its nearest existing ancestor must be a directory
    while path and not os.path.lexists(path):
        path = os.path.dirname(path)
    if not (args.out and os.path.isdir(path or ".")):
        raise ValueError(f"--out {args.out!r}: {path!r} is not a directory")


def _model(args):
    return verify.make_model(args.qrt, args.spin_S, args.n)


def _config(args, **extra) -> dict:
    return {"command": args.command, "qrt": args.qrt,
            "spin_S": str(args.spin_S), "n": args.n, **extra}


def _state_label(sel: str) -> str:
    return sel.replace("=", "")


def _file_tag(sel: str) -> str:
    """State label safe in a file name: ``m=1/2`` -> ``m1_2``."""
    return _state_label(sel).replace("/", "_")


def _filter_factors(model, svals, lead: float = 0.0) -> np.ndarray:
    """(len(svals), L) ``gfd.filter_factors`` at each ``--s`` plus ``lead``;
    an ``--s`` where a factor passes the float range is refused
    (ValueError: exit 2)."""
    rows = []
    for s in svals:
        try:
            rows.append(gfd.filter_factors(model, s + lead))
        except OverflowError:
            raise ValueError(f"--s {s:g}: a filter factor "
                             f"tau**(-{s + lead:g}) passes the float range"
                             ) from None
    return np.stack(rows)


def _report(args, results, **config) -> int:
    """Write the check report ``<command>.json`` (config, checks, seed);
    exit 0 when every check passed, else 1."""
    os.makedirs(args.out, exist_ok=True)
    render.write_json(os.path.join(args.out, f"{args.command}.json"),
                      {"config": _config(args, **config),
                       "checks": [{f: getattr(r, f) for f in r.__slots__}
                                  for r in results],
                       "seed": args.seed})
    return 0 if all(r.passed for r in results) else 1


def cmd_purities(args) -> int:
    """Sector purities ``P_lam`` and their filtered images ``tau**(-s)
    P_lam`` of every ``--state`` in one batched pass: ``model.state_purities``
    of the states (so at n = 10 the peak is that of one state), one array
    product with the filters, and the table written column by column."""
    model = _model(args)
    model.check_sector_size()  # before any d x d state is formed
    states = args.state or ["hw"]
    svals = args.s if args.s else [-1.0, 0.0, 1.0]
    factors = _filter_factors(model, svals)  # before any state is formed
    labels = model.labels()
    psi = np.stack([model.named_state(sel, seed=args.seed) for sel in states])
    purity = model.state_purities(psi)
    filtered = purity[:, None, :] * factors  # (states, svals, sectors)
    nk, ns, nl = filtered.shape
    header = ["model", "state", "s", "sector", "dim", "tau",
              "purity", "phase_purity"]
    columns = [
        [model.kind] * filtered.size,
        [label for sel in states for label in [_state_label(sel)] * (ns * nl)],
        np.repeat(np.tile(svals, nk), nl),
        [model.sector_name(lam) for lam in labels] * (nk * ns),
        np.tile([float(model.irrep_dim(lam)) for lam in labels], nk * ns),
        np.tile(model.taus, nk * ns),
        np.repeat(purity, ns, axis=0).ravel(),
        filtered.ravel(),
    ]
    os.makedirs(args.out, exist_ok=True)
    if args.format == "json":
        render.write_json(
            os.path.join(args.out, "purities.json"),
            {"config": _config(args, states=states, s=svals),
             "seed": args.seed}, "rows", header, columns)
    else:
        render.write_csv(os.path.join(args.out, "purities.csv"),
                         header, comments=[f"seed={args.seed}"],
                         columns=columns)
    return 0


def _marginal_qubit_operator(model: MultipartiteModel, A: np.ndarray):
    """Partial trace onto qubit 0 and the measure factor for the rest."""
    rest = model.dim // 2
    A4 = A.reshape(2, rest, 2, rest)
    return np.einsum("abcb->ac", A4), rest


def _phasespace_bytes(ntheta: int, nphi: int, target, nsvals: int,
                      model_dim: int, nstates: int) -> int:
    """Bytes ``phasespace`` holds, K = states x svals: the ``target`` model's
    coefficients of 3 K operators and synthesis of K columns; per node the
    fields and 184 B of node arrays, text and writer cells; the d x d
    states.  The ``tracemalloc`` peak is about 156 + 16 K B per node from
    20 000 to 240 000 nodes: 0.86 of this estimate at K = 1."""
    k = nstates * nsvals
    return (target.coefficient_bytes(3 * k)
            + target.synthesis_bytes(k, ntheta, nphi)
            + ntheta * nphi * (16 * k + 184) + nstates * model_dim ** 2 * 16)


def cmd_phasespace(args) -> int:
    """Field tables and heatmaps; one synthesis serves every state and
    every ``--s`` (``fields`` of the stacked states with the stacked
    per-sector factors).  Refused (exit 2) before anything
    N-sized is built: a grid whose ``_phasespace_bytes`` pass
    ``models.BYTES_BUDGET``, and an ``--s > 0`` with ``eps kappa**s >
    1e-8`` (``check_kappa``)."""
    model = _model(args)
    if not model.nspheres:
        raise ValueError(f"{model.kind} phase space has no spherical projection")
    try:
        ntheta, nphi = (int(tok) for tok in args.grid.lower().split("x"))
        if ntheta < 1 or nphi < 1:
            raise ValueError
    except ValueError:
        raise ValueError(f"bad grid spec {args.grid!r}") from None
    states = args.state or ["hw"]
    svals = args.s if args.s else [0.0]
    # Multi-qubit fields render the marginal on the first sphere.
    target = MultipartiteModel(1) if model.nspheres > 1 else model
    target.check_sector_size()  # before the exact tau of every sector
    # The kappa rule refuses every --s whose factor would overflow.
    ps.check_kappa(target, svals)
    factors = ps.factor_columns(
        target, [ps.KernelSpec.cahill_glauber(s) for s in svals])
    admit(f"phasespace on a {ntheta}x{nphi} grid at d={target.dim}",
          _phasespace_bytes(ntheta, nphi, target, len(svals), model.dim,
                            len(states)))
    theta, phi = render.equirect_grid(ntheta, nphi)
    nodes = np.stack((np.repeat(theta, nphi), np.tile(phi, ntheta)),
                     axis=1)[:, None]  # (N, 1, 2): one sphere
    coords = render.grid_cells(theta, phi)  # shared by every table
    ops, rest = [], 1
    for sel in states:
        psi = model.named_state(sel, seed=args.seed)
        rho = np.outer(psi, psi.conj())
        if target is not model:
            rho, rest = _marginal_qubit_operator(model, rho)
        ops.append(rho)
    fields = ps.fields(target, np.stack(ops), nodes, factors)
    os.makedirs(args.out, exist_ok=True)

    for i, sel in enumerate(states):
        for k, s in enumerate(svals):
            # rest ** ((s-1)/2): measure factor of the traced qubits
            vals = np.real(fields[:, i, k]) * float(rest) ** ((s - 1) / 2)
            field = vals.reshape(ntheta, nphi)

            tag = f"{_file_tag(sel)}_s{s:+g}"
            render.write_csv(
                os.path.join(args.out, f"field_{tag}.csv"),
                ["theta", "phi", "value"], comments=[f"seed={args.seed}"],
                columns=(coords, vals))
            rgb = render.colorize(field)
            if args.projection == "robinson":
                rgb = render.robinson_remap(rgb)
            render.write_ppm(
                os.path.join(args.out, f"field_{tag}.ppm"), rgb,
                comments=[f"seed={args.seed}",
                          f"state={sel} s={s:g} proj={args.projection}"])
    return 0


def cmd_duality(args) -> int:
    """Haar-duality Monte Carlo; exit 1 when any sector row fails its gate.

    The trivial sector is deterministic and must match to 1e-10.  Every
    non-trivial row is gated at ``|z| <= 4``, where z is the mean's
    deviation in standard errors.  z does not depend on s (one Haar pass
    serves every ``--s``, and the filter scales mean, error and reference
    alike), so under the normal approximation a correct run fails with
    probability about (sectors - 1) x P(|z| > 4) = (sectors - 1) x 6.3e-5:
    5.0e-4 for spin S = 4, whatever the number of ``--s`` values, but only
    at large ``--samples``: at S = 4 over seeds 0-199, a correct build
    exits 1 on 145 seeds at ``--samples 2``, 35 at ``--samples 5`` and 1
    at ``--samples 20`` (ROADMAP item 3).
    """
    model = _model(args)
    model.check_sector_size()  # before any sample is drawn
    svals = args.s if args.s else [-1.0, 0.0]
    _filter_factors(model, svals, lead=1.0)  # the reference reads s + 1
    results = []
    for row in gfd.duality_check(model, svals, args.samples, args.seed):
        name = f"duality[s={row.s:g},sector={model.sector_name(row.label)}]"
        if row.trivial:
            results.append(verify.check(
                name, abs(row.lhs_mean - row.rhs), 1e-10))
        else:
            results.append(verify.check(name, abs(row.zscore), 4.0))
    return _report(args, results, s=svals, samples=args.samples)


def cmd_star(args) -> int:
    """Twisted product of random Hermitian A and B against the symbol of
    A B at ``--points`` random points, exit 1 past 1e-6: ``symbol_field``
    of [A, B] at every ``--s`` on the doubled-band grid, then one
    ``star_product`` (two forward passes and one adjoint pass in all); the
    reference traces A B against one ``sw_kernel`` stack per point.
    Refused (exit 2) before any field is built: a model other than the
    spin, a spin past the CG table (2S > 200, ``check_sector_size``), an
    ``--s`` of either sign with ``eps kappa**|s| > 1e-8`` (``check_kappa``;
    the input fields are read back at the dual -s) and ``--points`` whose
    work, ``point_work`` + 2 10**4 units per point and ``--s`` (reference
    symbol; draw, synthesis), passes ``WORK_BUDGET``: 491 points with one
    ``--s`` at 2S = 200 (3.0-3.8 s, 128 MB RSS)."""
    model = _model(args)
    if args.qrt != "spin":
        raise ValueError("star command supports the spin model")
    model.check_sector_size()  # before any d-sized array
    svals = args.s if args.s else [0.0]
    ps.check_kappa(model, svals, dual=True)
    d = model.dim
    admit(f"star of {args.points} points at d={d} with {len(svals)} --s "
          "value(s)",
          work=args.points * len(svals) * (model.point_work() + 2 * 10**4))
    rng = np.random.default_rng(args.seed)
    A, B = verify._random_hermitian(d, rng), verify._random_hermitian(d, rng)
    grid = ps.sphere_quadrature(2 * model.band)  # doubled band limit
    out_points = [model.random_point(rng) for _ in range(args.points)]
    specs = tuple(ps.KernelSpec.cahill_glauber(s) for s in svals)
    field = ps.symbol_field(model, np.stack([A, B]), grid, specs)
    fa, fb = (ps.SymbolField(model, grid, specs, part)
              for part in np.hsplit(field.values, 2))
    stars = ps.star_product(fa, fb, svals, out_points)
    AB = A @ B
    ref = np.array([[complex(np.einsum("ab,ba->", D, AB))
                     for D in ps.sw_kernel(model, pch, specs)]
                    for pch in out_points])
    results = []
    for k, s in enumerate(svals):
        dev = float(np.max(np.abs(stars[:, k] - ref[:, k]))
                    / (1 + np.max(np.abs(ref[:, k]))))
        results.append(verify.check(f"star_product[s={s:g}]", dev, 1e-6))
    return _report(args, results, s=svals, points=args.points)


def cmd_verify(args) -> int:
    """The check suite; where kappa caps the field checks at s* < 1
    (``verify.field_s_limit``), stdout and the report name kappa and s*."""
    results = verify.run_checks(args.qrt, args.spin_S, args.n,
                                seed=args.seed, quad_tol=args.quad_tol)
    model, config = _model(args), {"quad_tol": args.quad_tol}
    s_star = verify.field_s_limit(model, args.quad_tol)
    if s_star < 1:
        config.update(kappa=ps.kappa(model), s_star=s_star)
        print(f"note kappa={config['kappa']:.3e} s*={s_star:.3f}: field "
              "checks at s = 0, +-s*, where eps kappa**s* = quad_tol / "
              f"{verify.field_margin(model):.3g}")
    code = _report(args, results, **config)
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{status:4s} {r.name}: value={r.value:.3e} bound={r.bound:.1e}")
    return code


def _help(command) -> str:
    return "\n".join([_USAGE, """
--flag VALUE or --flag=VALUE; a unique prefix names a flag (an exact name
wins: --s is --s).  --state and --s repeat, other flags keep their last
value.  A VALUE starting with '-' needs the = form unless it reads like -1."""
    ] + [f"\n{c}  {text}\n" + "\n".join(
        f"  {f} {'{' + ','.join(ch) + '}' if ch else 'VALUE'} "
        f"({'repeatable' if d is None else f'default {d}'})"
        for f, (_, d, ch) in {**_COMMON, **flags}.items())
        for c, (text, flags) in _COMMANDS.items() if command in (None, c)])


def _fail(message: str):
    sys.stderr.write(f"{_USAGE}\nsweyl: error: {message}\n")
    raise SystemExit(2)


def _flag(flags, tok):
    """(flag, its =value or None), (None, None) if unknown, None if a value."""
    if tok[:1] != "-" or tok == "-":
        return None
    key, eq, value = (tok.partition("=") if tok[1] == "-"
                      else (tok[:2], tok[2:], tok[2:]))  # -h and its tail
    hits = [key] if key in flags else [f for f in flags if f.startswith(key)]
    if len(hits) > 1:
        _fail(f"ambiguous option: {tok} could match {', '.join(hits)}")
    if hits:
        return hits[0], value if eq else None
    number = re.match(r"-\d+$|-\d*\.\d+$", tok)  # as argparse reads -1, -.5
    return None if number or " " in tok else (None, None)


def parse_args(argv=None) -> types.SimpleNamespace:
    """``command`` and its flags from argv (``sys.argv[1:]``), applied in
    order.  Usage errors print the usage and one ``error:`` line to stderr
    and raise SystemExit(2); -h/--help and --version raise SystemExit(0)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    cut = argv.index("--") if "--" in argv else len(argv)  # none is taken
    flags, command = dict.fromkeys(("-h", "--help", "--version")), None
    kinds, extras, i = [_flag(flags, t) for t in argv[:cut]], [], 0
    while i < cut:
        tok, kind, i = argv[i], kinds[i], i + 1
        if kind is None and command is None:  # its flags from here on
            if tok not in _COMMANDS:
                _fail(f"argument command: invalid choice: {tok!r} (choose "
                      f"from {', '.join(map(repr, _COMMANDS))})")
            command, flags = tok, {"-h": None, "--help": None, **_COMMON,
                                   **_COMMANDS[tok][1]}
            got = {f: spec[1] for f, spec in flags.items() if spec}
            kinds[i:] = [_flag(flags, t) for t in argv[i:cut]]
            continue
        if kind is None or kind[0] is None:
            extras.append(tok)
            continue
        name, value = kind
        if flags[name] is None:  # -h, --help, --version
            if value is not None:
                _fail(f"argument {name}: ignored explicit argument {value!r}")
            print(__version__ if name == "--version" else _help(command))
            raise SystemExit(0)
        if value is None:
            if i == cut or kinds[i] is not None:
                _fail(f"argument {name}: expected one argument")
            value, i = argv[i], i + 1
        cast, default, choices = flags[name]
        try:
            value = cast(value)
        except ValueError:
            _fail(f"argument {name}: invalid {cast.__name__} value: {value!r}")
        if choices and value not in choices:
            _fail(f"argument {name}: invalid choice: {value!r} (choose from "
                  f"{', '.join(map(repr, choices))})")
        got[name] = (got[name] or []) + [value] if default is None else value
    if command is None:
        _fail("the following arguments are required: command")
    if extras + argv[cut:]:
        _fail(f"unrecognized arguments: {' '.join(extras + argv[cut:])}")
    return types.SimpleNamespace(command=command, **{
        f[2:].replace("-", "_"): v for f, v in got.items()})


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        _check_flags(args)
        return globals()[f"cmd_{args.command}"](args)  # cmd_<command>
    except (np.linalg.LinAlgError, OverflowError) as exc:
        # LinAlgError is a ValueError subclass, but a failed eig/eigh/qr is
        # a numerical failure of a valid configuration, not a usage error.
        # So is a float overflow that no admission rule foresaw; an --s whose
        # filter factor tau**(-s) overflows is refused up front (exit 2).
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Flags, models, sector blocks, state selectors and the budgets
        # (``models.admit``) refuse what they cannot serve (non-finite --s,
        # qubit counts past the label or dense-block caps, unknown states,
        # sizes past a budget) with ValueError: a usage error, not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
