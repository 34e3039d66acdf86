"""Command-line surface: solve, table, verify, hierarchy, grid-potential.

Exit codes are a CI contract: 0 success, 1 residual/row failure,
2 invalid configuration, 3 degenerate output (unless --allow-degenerate).
Numbers are serialized with 17 significant digits so re-runs are
bit-identical and round-trip exactly through doubles.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import hierarchies, operators, tables
from .oscillator import NU_INF, SeedSpec, SeedSpecError, seed_chain
from .painleve import CERT_TOL, DegenerateOutputError, solve
from .susy import PartnerPotential

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3

# config-file spellings of a flag that is on or off
_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmtc(x: complex) -> str:
    return f"{x.real:.17g}{'+' if x.imag >= 0 else '-'}{abs(x.imag):.17g}j"


class ConfigError(Exception):
    pass


def _parse_complex_pair(text: str) -> complex:
    """'re' or 're,im' -> complex."""
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ConfigError(f"expected 're' or 're,im', got {text!r}")


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    out = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line: {line!r}")
        key, val = line.split("=", 1)
        out[key.strip().replace("-", "_")] = val.strip()
    return out


def _config_argv(args) -> list[str]:
    """The config file's values as options of args' command.

    They are parsed before the command line, so a flag given there wins,
    and argparse casts and checks them like the command line's own.
    Keys that name no option of the command are ignored.
    """
    tokens = []
    for key, val in _load_config_file(args.config).items():
        if key in ("command", "func", "config") or not hasattr(args, key):
            continue
        flag = "--" + key.replace("_", "-")
        if not isinstance(getattr(args, key), bool):
            tokens.append(f"{flag}={val}")
        elif val.lower() not in _BOOLEANS:
            raise ConfigError(f"{key} = {val!r}: expected true/false, yes/no or 1/0")
        elif _BOOLEANS[val.lower()]:
            tokens.append(flag)
    return tokens


def _spec_from_args(args) -> SeedSpec:
    try:
        eps1 = _parse_complex_pair(args.eps)
        if args.lk is not None:
            lam, kap = (float(t) for t in args.lk.split(","))
            return SeedSpec.from_lambda_kappa(args.l, eps1, lam, kap, k=args.k,
                                              ordering=args.order)
        nu_text = str(args.nu).strip().lower()
        nu = NU_INF if nu_text in ("inf", "infinity") else _parse_complex_pair(str(args.nu))
        return SeedSpec.from_nu(args.l, eps1, nu, k=args.k, mode=args.mode, ordering=args.order)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _positive(name: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be finite and > 0")
    return value


# Evaluation windows (x = sqrt(z)), round and inside what holds at the corners
# of the spec domain: there the seed's 1F1 series runs out of terms between
# x = 22 and 25, and x^-l overflows below x = 1e-6 at l = 50.
X_WINDOW = (1e-2, 20.0)
Z_WINDOW = (1e-4, 400.0)
# grid sizes: 1e5 points solve in ~20 s at k = 1 on one core, 1e8 in hours; 1e15 overflow memory
POINTS_RANGE = (2, 100_000)


def _in_window(name: str, value: float, window: tuple[float, float]) -> float:
    lo, hi = window
    if not lo <= value <= hi:  # NaN fails too
        raise ConfigError(f"{name} must lie in [{lo:g}, {hi:g}], got {value}")
    return value


def _points(n: int) -> int:
    lo, hi = POINTS_RANGE
    if not lo <= n <= hi:
        raise ConfigError(f"points must lie in [{lo}, {hi}], got {n}")
    return n


def _grid_from_args(args) -> np.ndarray:
    lo, hi = _in_window("zmin", args.zmin, Z_WINDOW), _in_window("zmax", args.zmax, Z_WINDOW)
    spaced = np.geomspace if args.spacing == "geometric" else np.linspace
    return spaced(lo, hi, _points(args.points))


def _write_text(path: str, text: str) -> None:
    """Write to a file, or to stdout for '-'; a path that cannot be written is a config error."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(str(exc)) from exc


def _write_solution(path: str, fmt: str, sol, samples, max_res: float, tag) -> None:
    meta = {
        "a": _fmtc(complex(sol.params.a)),
        "b": _fmtc(complex(sol.params.b)),
        "c": _fmtc(complex(sol.params.c)),
        "d": _fmtc(complex(sol.params.d)),
        "ordering": sol.ordering,
        "classification": sol.classification,
        "hierarchy": tag.family,
        "max_residual": _fmt(max_res),
    }
    if fmt == "csv":
        lines = ["# " + json.dumps(meta, sort_keys=True)]
        lines.append("z,w_re,w_im,residual,flag")
        for s in samples:
            res = _fmt(s.residual) if s.residual is not None else ""
            lines.append(f"{_fmt(s.z)},{_fmt(s.w.real)},{_fmt(s.w.imag)},{res},{s.flag}")
        text = "\n".join(lines) + "\n"
    else:
        rows = [{
            "z": _fmt(s.z),
            "w_re": _fmt(s.w.real),
            "w_im": _fmt(s.w.imag),
            "residual": _fmt(s.residual) if s.residual is not None else None,
            "flag": s.flag,
        } for s in samples]
        text = json.dumps({"meta": meta, "grid": rows}, indent=1, sort_keys=True) + "\n"
    _write_text(path, text)


def cmd_solve(args) -> int:
    spec = _spec_from_args(args)
    zs = _grid_from_args(args)
    tol = _positive("tol", args.tol)
    try:
        sol = solve(spec, allow_degenerate=args.allow_degenerate)
    except DegenerateOutputError as exc:
        print(f"degenerate output: {exc.classification}", file=sys.stderr)
        return EXIT_DEGENERATE
    # a degenerate solution (allowed) certifies nothing: all samples flagged, max inf
    max_res, samples = sol.residual_certificate(zs)
    _write_solution(args.out, args.format, sol, samples, max_res, hierarchies.detect(spec))
    if sol.classification != "generic":
        print(f"degenerate output written: {sol.classification}")
        return EXIT_OK
    print(f"max masked residual: {max_res:.3e} over {len(samples)} points "
          f"({sum(1 for s in samples if s.flag != 'ok')} masked)")
    return EXIT_OK if max_res <= tol else EXIT_FAIL


def cmd_table(args) -> int:
    if args.which == "params":
        rows = tables.params_table_report()
        bad = [label for label, ok, _ in rows if not ok]
        for label, ok, n in rows:
            print(f"{label}: {'exact' if ok else 'MISMATCH'} ({n} rational samples)")
        if bad:
            print(f"rows off the alpha route: {', '.join(bad)} "
                  f"(the published entry disagrees with the same table's own "
                  f"k=1 and k=2 specializations)", file=sys.stderr)
        return EXIT_FAIL if bad else EXIT_OK
    try:
        ell = float(Fraction(args.l))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(f"bad --l {args.l!r}") from None
    rep = tables.reproduce_table(args.which, ell, n_points=_points(args.points))
    status = EXIT_OK
    for r in rep.rows:
        bits = [f"params={'exact' if r.params_exact else 'MISMATCH'}", f"w={r.w_status}"]
        if r.w_status == "mismatch" and r.classification != "generic":
            bits.append(f"machinery={r.classification}")
        if r.w_error_paper is not None:
            bits.append(f"err_paper={r.w_error_paper:.2e}")
        if r.w_error_derived is not None:
            bits.append(f"err_derived={r.w_error_derived:.2e}")
        if r.machinery_residual is not None:
            bits.append(f"residual={r.machinery_residual:.2e}")
        if r.note:
            bits.append(f"[{r.note}]")
        print(f"{args.which} {r.label}: " + " ".join(bits))
        if not r.ok():
            status = EXIT_FAIL
    return status


def cmd_verify(args) -> int:
    specs = None if args.k is None else [SeedSpec.from_nu(1.0, -0.4, 0.8, k=args.k)]
    reports = operators.run_all_checks(specs=specs, selected=args.check)
    if not reports:
        raise ConfigError(f"no check matches --check {args.check!r}")
    summary = {"checks": [], "all_passed": True}
    for r in reports:
        print(r.line())
        summary["checks"].append({"name": r.name, "passed": bool(r.passed),
                                  "max_error": _fmt(float(r.max_error)),
                                  "tolerance": _fmt(float(r.tolerance))})
        summary["all_passed"] = bool(summary["all_passed"] and r.passed)
    if args.out:
        _write_text(args.out, json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return EXIT_OK if summary["all_passed"] else EXIT_FAIL


def cmd_hierarchy(args) -> int:
    args.mode = args.mode or "complex-over-real"  # formal regimes: sub-bound nu is allowed
    rep = hierarchies.crosscheck(_spec_from_args(args))
    print(f"family: {rep.tag.family}")
    for key, val in sorted(rep.tag.condition.items()):
        print(f"  condition {key} = {val}")
    print(f"machinery residual: {rep.machinery_residual:.3e} "
          f"(ordering {rep.residual_ordering or 'n/a'})")
    for fm in rep.form_results:
        verdict = "matched" if fm.matched else "MISMATCH"
        print(f"form {fm.form}: {verdict} convention={fm.convention} "
              f"ordering={fm.ordering} error={fm.error:.3e}")
    ok = rep.machinery_residual <= CERT_TOL
    return EXIT_OK if ok else EXIT_FAIL


def cmd_grid_potential(args) -> int:
    pot = PartnerPotential(seed_chain(_spec_from_args(args)))
    xs = tuple(np.geomspace(_in_window("xmin", args.xmin, X_WINDOW),
                            _in_window("xmax", args.xmax, X_WINDOW), _points(args.points)).tolist())
    lines = ["x,v_re,v_im"]
    for x, v, singular in zip(xs, pot.deriv_jet(xs, 0)[:, 0].tolist(), pot.singular_at(xs)):
        v_re, v_im = ("nan", "nan") if singular else (_fmt(v.real), _fmt(v.imag))
        lines.append(f"{_fmt(x)},{v_re},{v_im}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--l", type=float, default=1.0, help="angular index l >= -1/2")
    p.add_argument("--eps", type=str, default="0.0", help="factorization energy 're[,im]'")
    p.add_argument("--nu", type=str, default="1.0", help="nu, or 'inf'")
    p.add_argument("--lk", type=str, default=None, help="complex mixture 'lambda,kappa'")
    p.add_argument("--k", type=int, default=1, help="SUSY order")
    p.add_argument("--order", type=str, default="1234", help="quartet ordering label")
    p.add_argument("--mode", type=str, default=None,
                   choices=["real-physical", "complex-over-real", "fully-complex"],
                   help="validation mode (default: inferred)")
    p.add_argument("--config", type=str, default=None, help="flat key=value config file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="susypv",
                                 description="Painleve V transcendents from SUSY "
                                             "partners of the radial oscillator")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="generate w(z) and certify it by PV residual")
    _add_spec_flags(p)
    p.add_argument("--zmin", type=float, default=0.1)
    p.add_argument("--zmax", type=float, default=20.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--spacing", choices=["geometric", "linear"], default="geometric")
    p.add_argument("--out", type=str, default="-")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--tol", type=float, default=CERT_TOL)
    p.add_argument("--allow-degenerate", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("table", help="reproduce the published tables")
    p.add_argument("--which", choices=["t0", "t1", "t2", "params"], required=True)
    p.add_argument("--l", type=str, default="1")
    p.add_argument("--points", type=int, default=50)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run the operator-identity suite")
    p.add_argument("--check", type=str, default=None,
                   help="substring filter (intertwining, commutator, ...)")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", type=str, default=None, help="JSON summary path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hierarchy", help="detect and crosscheck a solution hierarchy")
    _add_spec_flags(p)
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser("grid-potential", help="emit V_k(x) on a grid (CSV)")
    _add_spec_flags(p)
    p.add_argument("--xmin", type=float, default=0.05)
    p.add_argument("--xmax", type=float, default=8.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out", type=str, default="-")
    p.set_defaults(func=cmd_grid_potential)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = ap.parse_args(argv)
        if getattr(args, "config", None):
            args = ap.parse_args(argv[:1] + _config_argv(args) + argv[1:])
        return args.func(args)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    except (ConfigError, SeedSpecError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
