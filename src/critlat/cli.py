"""Command-line front end: eval, verify, p0, and lattice subcommands.

Exit codes: 0 success / complete certificate, 2 input error (a non-finite
number or tolerance and a bad config value included), 3 incomplete
certification (partial certificate still written), 4 numeric failure (an
overflow included).
Configuration precedence: flags > environment variables > config file.
Environment: CRITLAT_WORKERS (default worker count), CRITLAT_CONFIG (config
file path).  Rigorous bounds are printed with stated rounding direction
(lower bounds rounded down, upper bounds rounded up).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal

from . import __version__
from .interval import DomainError, Interval, IntervalError, IntervalOverflow
from . import elliptic as el
from . import moduli as mod
from . import verifier as ver

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCOMPLETE = 3
EXIT_NUMERIC = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


FORMATS = ("structured", "tabular")


def _count(name: str, value) -> int:
    """value if it is an integer >= 1, else a CliError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise CliError(f"{name} must be an integer >= 1, got {value!r}")
    return value


@dataclass
class RunConfig:
    """Resolved configuration: flags > environment > config file."""

    workers: int = 1
    node_budget: int = 24000
    output: str | None = None
    format: str = "structured"

    @classmethod
    def resolve(cls, args) -> "RunConfig":
        cfg = {}
        path = getattr(args, "config", None) or os.environ.get("CRITLAT_CONFIG")
        if path:
            try:
                with open(path) as fh:
                    cfg = json.load(fh)
            except (OSError, json.JSONDecodeError) as e:
                raise CliError(f"cannot read config file {path}: {e}")
            if not isinstance(cfg, dict):
                raise CliError(f"config file {path} must hold a JSON object")
        env_workers = os.environ.get("CRITLAT_WORKERS")
        workers = cfg.get("workers", 1)
        if env_workers is not None:
            try:
                workers = int(env_workers)
            except ValueError:
                raise CliError(f"bad CRITLAT_WORKERS {env_workers!r}") from None
        if getattr(args, "workers", None) is not None:
            workers = args.workers
        node_budget = cfg.get("node_budget", 24000)
        if getattr(args, "node_budget", None) is not None:
            node_budget = args.node_budget
        output = getattr(args, "out", None) or cfg.get("output")
        if not isinstance(output, (str, type(None))):
            raise CliError(f"output must be a file name, got {output!r}")
        fmt = getattr(args, "format", None) or cfg.get("format", "structured")
        if fmt not in FORMATS:
            raise CliError(f"format must be one of {', '.join(FORMATS)}, got {fmt!r}")
        return cls(
            workers=_count("workers", workers),
            node_budget=_count("node_budget", node_budget),
            output=output,
            format=fmt,
        )


def _round_dir(x: float, direction: str, places: int = 17) -> str:
    q = Decimal(1).scaleb(-places)
    d = Decimal(repr(x)).quantize(
        q, rounding=ROUND_FLOOR if direction == "down" else ROUND_CEILING
    )
    return str(d.normalize()) if d == d.to_integral_value() else str(d)


def _print_bounds(name: str, iv: Interval, out) -> None:
    print(
        f"{name},{_round_dir(iv.lo, 'down')},{_round_dir(iv.hi, 'up')},"
        "lower rounded down; upper rounded up",
        file=out,
    )


def _parse_complex(text: str) -> complex:
    try:
        z = complex(text.replace(" ", "").replace("i", "j"))
    except ValueError:
        raise CliError(f"cannot parse complex number {text!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise CliError(f"complex number must be finite, got {text!r}")
    return z


def _finite_p(p: float) -> float:
    if not math.isfinite(p):
        raise CliError(f"p must be finite, got {p}")
    return p


def cmd_eval(args, cfg: RunConfig, out) -> int:
    p, sigma = _finite_p(args.p), args.sigma
    try:
        mod.ParamDomain(p, sigma)
    except DomainError as e:
        raise CliError(str(e))
    what = args.what
    rows = ["quantity,value,residual"]  # printed at the end: a refusal prints no row
    if what in ("tau", "all"):
        tau = mod.tau_point(p, sigma)
        resid = mod._f_resid(p, sigma, tau)
        rows.append(f"tau,{tau!r},{resid!r}")
    if what in ("delta", "all"):
        mp = mod.delta_point(p, sigma)
        resid = mod._f_resid(p, sigma, mp.tau)
        rows.append(f"delta,{mp.delta!r},{resid!r}")
    if what in ("derivatives", "all"):
        try:
            d = mod.derivatives(p, sigma)
        except (DomainError, mod.SingularConstraint) as e:
            raise CliError(str(e), EXIT_NUMERIC)
        for name, v in zip(
            ("d_sigma", "d_sigma2", "d_p", "d_sigma_p", "d_sigma2_p"), d.as_tuple()
        ):
            rows.append(f"{name},{v!r},")
    print(*rows, sep="\n", file=out)
    return EXIT_OK


def cmd_verify(args, cfg: RunConfig, out) -> int:
    p_lo, p_hi = map(_finite_p, args.p)
    if not (1.0 < p_lo < p_hi):
        raise CliError(f"need 1 < p_lo < p_hi, got {p_lo}, {p_hi}")
    if not args.strip > 0.0:  # NaN too
        raise CliError("strip width must be positive")
    if args.budget < 1:
        raise CliError("budget must be >= 1")
    try:
        cert = ver.verify_strip(
            Interval(p_lo, p_hi),
            sigma_policy=args.policy,
            strip=args.strip,
            budget=args.budget,
            workers=cfg.workers,
            node_budget=cfg.node_budget,
        )
        code = EXIT_OK
    except ver.BudgetExhausted as e:
        cert = e.certificate
        code = EXIT_INCOMPLETE
    except IntervalOverflow as e:
        raise CliError(f"numeric overflow: {e}", EXIT_NUMERIC)
    except (DomainError, IntervalError) as e:
        raise CliError(str(e))
    doc = ver.emit_certificate(cert, format=cfg.format)
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(doc)
    else:
        out.write(doc)
    for k in sorted(cert.totals):
        print(f"{k}: {cert.totals[k]}", file=sys.stderr)
    print(
        f"leaves: {len(cert.leaves)}  complete: {cert.complete}  "
        f"time: {cert.timing:.2f}s",
        file=sys.stderr,
    )
    return code


def cmd_p0(args, cfg: RunConfig, out) -> int:
    if not args.tol > 0.0:  # NaN too
        raise CliError("tolerance must be positive")
    try:
        iv = ver.enclose_p0(args.tol)
    except ver.NoSignChange as e:
        raise CliError(str(e), EXIT_NUMERIC)
    print("quantity,lower,upper,rounding", file=out)
    _print_bounds("p0", iv, out)
    return EXIT_OK


def cmd_lattice(args, cfg: RunConfig, out) -> int:
    kind = {"L0": "L0", "L1": "L1", "lambda0": "L0", "lambda1": "L1"}.get(args.kind)
    if kind is None:
        raise CliError(f"unknown lattice kind {args.kind!r}")
    if _finite_p(args.p) <= 1.0:
        raise CliError(f"lattice needs p > 1, got {args.p}")
    mult = _parse_complex(args.multiplier) if args.multiplier else None
    if args.orbit:
        orbit_lam = _parse_complex(args.orbit[0])
        if not args.orbit[1].isdecimal():
            raise CliError(f"orbit length must be an integer >= 0, got {args.orbit[1]!r}")
        n = int(args.orbit[1])
    L = mod.lattice_basis(kind, args.p)
    print("quantity,value,accuracy", file=out)
    if args.basis or not (args.det or args.curve or args.multiplier or args.orbit):
        print(f"omega1,{L.omega1[0]!r}{L.omega1[1]:+}j,exact formula", file=out)
        print(f"omega2,{L.omega2[0]!r}{L.omega2[1]:+}j,exact formula", file=out)
    if args.det:
        print(f"det,{mod.lattice_det(L)!r},double rounding", file=out)
    CL = el.complexify(L)
    if args.curve:
        try:
            E = el.weierstrass_curve(CL)
        except el.DegenerateCurve as e:
            raise CliError(str(e), EXIT_NUMERIC)
        print(f"g2,{E.g2!r},±{E.g2_err!r}", file=out)
        print(f"g3,{E.g3!r},±{E.g3_err!r}", file=out)
        print(f"discriminant,{E.discriminant!r},error-checked nonzero", file=out)
    if args.multiplier:
        try:
            act = el.multiplier_check(CL, mult)
        except el.NotAMultiplier as e:
            raise CliError(str(e), EXIT_NUMERIC)
        print(f"multiplier,{mult!r},accepted", file=out)
        print(f"matrix,{act.matrix!r},integer", file=out)
    if args.orbit:
        try:
            act = el.multiplier_check(CL, orbit_lam)
        except el.NotAMultiplier as e:
            raise CliError(str(e), EXIT_NUMERIC)
        orbit = el.z_action_orbit(act, (1, 0), n)
        print(f"orbit,{';'.join(f'{j},{k}' for j, k in orbit)},integer", file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="critlat",
        description=(
            "Verified interval toolkit for the Minkowski critical-determinant "
            "conjecture and the dynamics of critical lattices."
        ),
    )
    ap.add_argument("--version", action="version", version=f"critlat {__version__}")
    ap.add_argument("--config", help="JSON config file (flags override)")
    ap.add_argument("--workers", type=int, help="worker count (env CRITLAT_WORKERS)")
    ap.add_argument("--dump-config", action="store_true", help="print resolved config and exit")
    sub = ap.add_subparsers(dest="command")

    pe = sub.add_parser("eval", help="point values on the moduli surface")
    pe.add_argument("--p", type=float, required=True)
    pe.add_argument("--sigma", type=float, required=True)
    pe.add_argument("--what", choices=("tau", "delta", "derivatives", "all"), default="all")

    pv = sub.add_parser("verify", help="certify the critical-determinant inequality on a strip")
    pv.add_argument("--p", type=float, nargs=2, required=True, metavar=("LO", "HI"))
    pv.add_argument("--strip", type=float, default=0.02, help="boundary strip width")
    pv.add_argument("--budget", type=int, default=10000, help="max leaves")
    pv.add_argument("--policy", choices=("full", "interior"), default="full")
    pv.add_argument("--node-budget", type=int, dest="node_budget")
    pv.add_argument("--out", help="certificate file (stdout if omitted)")
    pv.add_argument("--format", choices=FORMATS, help="default structured")

    pp = sub.add_parser("p0", help="rigorous enclosure of the boundary crossover p0")
    pp.add_argument("--tol", type=float, required=True)

    pl = sub.add_parser("lattice", help="critical-lattice data and elliptic dynamics")
    pl.add_argument("--kind", required=True, help="L0 or L1")
    pl.add_argument("--p", type=float, required=True)
    pl.add_argument("--basis", action="store_true")
    pl.add_argument("--det", action="store_true")
    pl.add_argument("--curve", action="store_true")
    pl.add_argument("--multiplier", help="complex candidate, e.g. 0.5+0.866i")
    pl.add_argument("--orbit", nargs=2, metavar=("LAMBDA", "N"))
    return ap


_COMMANDS = {
    "eval": cmd_eval,
    "verify": cmd_verify,
    "p0": cmd_p0,
    "lattice": cmd_lattice,
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else 0
    try:
        cfg = RunConfig.resolve(args)
        if args.dump_config:
            print(json.dumps(cfg.__dict__, sort_keys=True, indent=2), file=out)
            return EXIT_OK
        if not args.command:
            ap.print_help(out)
            return EXIT_INPUT
        return _COMMANDS[args.command](args, cfg, out)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (DomainError, mod.NoRootInRange, IntervalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except OverflowError as e:
        print(f"error: numeric overflow: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ArithmeticError as e:  # a float result short of its stated accuracy
        print(f"error: numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
