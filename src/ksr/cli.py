"""Command-line interface.

Subcommands: ``bound`` (closed-form sharp bounds), ``extremal``
(extremal-function CSV emitters), ``recover`` (optimal-recovery
experiments with two-sided certification), ``landau``, ``stechkin``,
``delta-recover``, ``verify`` (the full certification suites) and
``sweep`` (convergence tables).

JSON goes to stdout and is byte-stable under a fixed seed; CSV is used
for function graphs only.  Exit codes: 0 success, 1 parse error,
2 precondition violation (the diagnostic names the violated
hypothesis) or an ``--out`` file that cannot be written, 3 failed
verification.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import List, Optional

from . import gridfn as gf
from . import kscore as ks
from . import landau as la
from . import lspace as ls
from . import oracle as orc
from . import ostrowski as ost
from .errors import DomainViolation, KsrError
from .modulus import parse_modulus

_DIAGNOSTICS = {
    "NonConcave": "modulus not concave: sharpness unavailable, bound still valid",
    "MassMismatch": "weight masses differ: the comparison functional is not balanced",
    "BadSupportOrder": "weight supports are not ordered left before right",
    "KnotViolation": "knot/half-width configuration violates the admissibility constraints",
    "WindowViolation": "difference windows violate the nesting constraints",
    "DomainViolation": "point lies outside the domain of the function",
    "NonIsotropic": "operation requires an isotropic model",
    "NoDifference": "required Hukuhara difference does not exist",
    "NotInvertible": "element has no additive inverse",
    "CannotCertify": "extremal candidate could not be certified as a class member",
    "InvalidModulus": "candidate modulus failed validation",
}


def _emit(payload: dict) -> None:
    # a nan or infinite value raises ValueError (exit 2) that names its
    # field, instead of printing the non-standard JSON constants NaN and
    # Infinity
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError as e:
        fields = ", ".join(_nonfinite_fields(payload))
        raise ValueError(f"result not finite: {fields} ({e})") from None
    sys.stdout.write(text + "\n")


def _nonfinite_fields(obj, path: str = "") -> List[str]:
    """``path = value`` for each nan or infinite float of a JSON payload."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [f"{path} = {obj}"]
    if isinstance(obj, dict):
        items = [(f"{path}.{k}" if path else str(k), v) for k, v in sorted(obj.items())]
    elif isinstance(obj, (list, tuple)):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(obj)]
    else:
        return []
    return [field for key, v in items for field in _nonfinite_fields(v, key)]


def _finite(text: str) -> float:
    """argparse type: a float that is neither nan nor infinite."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (trial counts and grid sizes)."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _positive_ints(text: str) -> List[int]:
    """argparse type: a comma-separated list of positive integers (knot
    counts); empty entries are skipped."""
    return [_positive_int(v) for v in text.split(",") if v.strip()]


def _pair(text: Optional[str]) -> tuple:
    if not text:
        raise ValueError("missing segment 'lo,hi'")
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 2 or not all(map(math.isfinite, parts)):
        raise ValueError(f"expected finite 'lo,hi', got {text!r}")
    return parts[0], parts[1]


def _write_csv(f: gf.GridFunction, path: str) -> None:
    Path(path).write_text(gf.to_csv(f))


def _case_name(case: str) -> str:
    return case.capitalize()


def cmd_bound(args) -> int:
    omega = parse_modulus(args.omega)
    if args.kind == "ks":
        w1 = ks.parse_step_weight(args.psi1)
        w2 = ks.parse_step_weight(args.psi2)
        _emit({"bound": ks.ks_bound(w1, w2, omega), "kind": "ks"})
    elif args.kind == "general":
        w1 = ks.parse_step_weight(args.psi1)
        w2 = ks.parse_step_weight(args.psi2)
        _emit({"bound": ks.general_bound(w1, w2, omega), "kind": "general"})
    elif args.kind == "ostrowski":
        a, b = _pair(args.ab)
        c, d = _pair(args.cd)
        cfg = ost.two_interval_config(a, b, c, d)
        _emit({"bound": ost.two_interval_bound(cfg, omega), "case": _case_name(cfg.case)})
    elif args.kind == "symmetric":
        a, b = _pair(args.ab)
        c, d = _pair(args.cd)
        _emit({"bound": ost.symmetric_bound(a, b, c, d, omega), "kind": "symmetric"})
    elif args.kind == "point-mean":
        c, d = _pair(args.cd)
        _emit({"bound": ost.point_vs_mean_bound(args.t, c, d, omega), "kind": "point-mean"})
    elif args.kind == "pair":
        a, b = _pair(args.ab)
        _emit({"bound": ost.symmetrized_pair_bound(args.t, a, b, omega), "kind": "pair"})
    else:
        raise ValueError(f"unknown bound kind {args.kind!r}")
    return 0


def cmd_extremal(args) -> int:
    omega = parse_modulus(args.omega)
    n = args.grid
    if args.kind == "ks":
        w1 = ks.parse_step_weight(args.psi1)
        w2 = ks.parse_step_weight(args.psi2)
        g = ks.ks_extremal(w1, w2, omega, n=n)
        attained = ks.functional_S(g, w1, w2)
        target = ks.ks_bound(w1, w2, omega)
    elif args.kind == "general":
        w1 = ks.parse_step_weight(args.psi1)
        w2 = ks.parse_step_weight(args.psi2)
        g = ks.glue_extremal(ks.decompose_weights(w1, w2), omega, n=n)
        attained = ks.functional_S(g, w1, w2)
        target = ks.general_bound(w1, w2, omega)
    elif args.kind == "ostrowski":
        a, b = _pair(args.ab)
        c, d = _pair(args.cd)
        cfg = ost.two_interval_config(a, b, c, d)
        g = ost.two_interval_extremal(cfg, omega, n=n)
        w1, w2 = ost.two_interval_weights(cfg)
        attained = ks.functional_S(g, w1, w2)
        target = ost.two_interval_bound(cfg, omega)
    elif args.kind == "point-mean":
        c, d = _pair(args.cd)
        a, b = _pair(args.ab) if args.ab else (c, d)
        lo, hi = min(a, c), max(b, d)
        # values_at holds the end values outside the grid, which would
        # compare a point the extremal does not reach against the bound
        if not lo <= args.t <= hi:
            raise DomainViolation(f"t = {args.t} lies outside the extremal's domain [{lo}, {hi}]")
        g = ost.point_vs_mean_extremal(args.t, omega, lo, hi, n=n)
        attained = ost.point_vs_mean_functional(gf.lift(g, ls.interval(1, 1)), args.t, c, d)
        target = ost.point_vs_mean_bound(args.t, c, d, omega)
    elif args.kind == "pair":
        a, b = _pair(args.ab)
        g = ost.symmetrized_pair_extremal(args.t, a, b, omega, n=n)
        attained = ost.symmetrized_pair_functional(gf.lift(g, ls.interval(1, 1)), args.t, a, b)
        target = ost.symmetrized_pair_bound(args.t, a, b, omega)
    else:
        raise ValueError(f"unknown extremal kind {args.kind!r}")
    out = {"attained": attained, "kind": args.kind, "target": target}
    if args.out:
        _write_csv(g, args.out)
        out["csv"] = args.out
    _emit(out)
    return 0


def cmd_recover(args) -> int:
    omega = parse_modulus(args.omega)
    a, b = _pair(args.ab)
    report = orc.recovery_experiment(
        args.kind, args.n, args.h, omega, a, b, args.trials, args.grid, args.seed
    )
    payload = report.as_dict()
    payload["gap"] = payload["theoretical"] - payload["lower_bound"]
    if args.out:
        _write_csv(report.extremal, args.out)
        payload["extremal_csv"] = args.out
    _emit(payload)
    return 0


def cmd_landau(args) -> int:
    omega = parse_modulus(args.omega)
    a, b = _pair(args.ab)
    if args.variant in ("b", "d"):
        if args.gamma is None:
            raise la.WindowViolation("variants b and d need --gamma")
        w = la.clamped_windows(args.t, args.gamma, args.h, a, b)
    else:
        h1, h2 = la.clamped_outer(args.t, args.h, a, b)
        w = la.WindowConfig(args.t, 0.0, 0.0, h1, h2, a, b)
    if args.variant in ("b", "d"):
        value = la.K_value(w, omega)
    else:
        value = la.derivative_vs_quotient_value(w, omega)
    payload = {
        "norm_budget": la.operator_norm_bound(w),
        "value": value,
        "variant": args.variant,
        "windows": {"g1": w.g1, "g2": w.g2, "h1": w.h1, "h2": w.h2},
    }
    if args.variant == "e":
        payload["extremal_sup_norm"] = la.extremal_sup_norm(w, omega)
    if args.out:
        f = la.landau_extremal(args.variant, w, omega, n=args.grid)
        _write_csv(f, args.out)
        payload["extremal_csv"] = args.out
    _emit(payload)
    return 0


def cmd_stechkin(args) -> int:
    omega = parse_modulus(args.omega)
    a, b = _pair(args.ab)
    if args.target == "derivative":
        h1, h2 = la.clamped_outer(args.t, args.h, a, b)
        w = la.WindowConfig(args.t, 0.0, 0.0, h1, h2, a, b)
    else:
        if args.gamma is None:
            raise la.WindowViolation("divided-difference target needs --gamma")
        w = la.clamped_windows(args.t, args.gamma, args.h, a, b)
    payload = {
        "norm_budget": la.operator_norm_bound(w),
        "target": args.target,
        "value": la.stechkin_value("divdiff" if args.target == "divdiff" else "derivative", w, omega),
    }
    _emit(payload)
    return 0


def cmd_delta_recover(args) -> int:
    omega = parse_modulus(args.omega)
    a, b = _pair(args.ab)
    payload = la.delta_recovery_value(args.t, args.h, omega, a, b)
    _emit(payload)
    return 0


def cmd_verify(args) -> int:
    names = list(orc.SUITES) if args.suite == "all" else [args.suite]
    for n in names:
        if n not in orc.SUITES:
            raise ValueError(f"unknown suite {n!r}")
    report = orc.run_suites(names, args.trials, args.grid, args.seed)
    _emit(report)
    return 0 if report["pass"] else 3


def cmd_sweep(args) -> int:
    omega = parse_modulus(args.omega)
    a, b = _pair(args.ab)
    lines = ["param,theoretical,empirical,gap"]
    reports = orc.recovery_sweep(args.kind, args.values, args.h, omega, a, b, args.trials, args.grid, args.seed)
    for n, report in zip(args.values, reports):
        gap = report.theoretical - report.lower_bound
        lines.append(f"{n},{report.theoretical:.12g},{report.empirical_upper:.12g},{gap:.12g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        k, v = line.split("=", 1)
        out[k.strip().replace("-", "_")] = v.strip()
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ksr", description="sharp bounds and optimal recovery toolkit")
    parser.add_argument("--config", default=None, help="key=value config file; flags override")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, omega=True, grid=True):
        if omega:
            p.add_argument("--omega", default="power:K=1,alpha=1")
        if grid:
            p.add_argument("--grid", type=_positive_int, default=gf.DEFAULT_GRID)

    p = sub.add_parser("bound", help="closed-form sharp bounds")
    p.add_argument("kind", choices=["ks", "general", "ostrowski", "symmetric", "point-mean", "pair"])
    p.add_argument("--psi1", help="left step weight 'a,b; u,v,w; ...'")
    p.add_argument("--psi2", help="right step weight")
    p.add_argument("--ab", help="first segment 'a,b'")
    p.add_argument("--cd", help="second segment 'c,d'")
    p.add_argument("--t", type=_finite, default=0.0)
    common(p, grid=False)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("extremal", help="emit extremal functions as CSV")
    p.add_argument("kind", choices=["ks", "general", "ostrowski", "point-mean", "pair"])
    p.add_argument("--psi1")
    p.add_argument("--psi2")
    p.add_argument("--ab")
    p.add_argument("--cd")
    p.add_argument("--t", type=_finite, default=0.0)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("recover", help="optimal-recovery experiments")
    p.add_argument("kind", choices=orc.RECOVERY_KINDS)
    p.add_argument("--n", type=_positive_int, default=2)
    p.add_argument("--h", type=_finite, default=0.05)
    p.add_argument("--ab", default="0,1")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("landau", help="sharp first-order inequality constants")
    p.add_argument("--variant", choices=list(la.VARIANTS), default="e")
    p.add_argument("--t", type=_finite, default=0.5)
    p.add_argument("--h", type=_finite, required=True)
    p.add_argument("--gamma", type=_finite, default=None)
    p.add_argument("--ab", default="0,1")
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_landau)

    p = sub.add_parser("stechkin", help="best approximation of unbounded operators")
    p.add_argument("--target", choices=["derivative", "divdiff"], default="derivative")
    p.add_argument("--t", type=_finite, default=0.5)
    p.add_argument("--h", type=_finite, required=True)
    p.add_argument("--gamma", type=_finite, default=None)
    p.add_argument("--ab", default="0,1")
    common(p, grid=False)
    p.set_defaults(func=cmd_stechkin)

    p = sub.add_parser("delta-recover", help="recovery of the derivative from inexact data")
    p.add_argument("--t", type=_finite, default=0.5)
    p.add_argument("--h", type=_finite, required=True)
    p.add_argument("--ab", default="0,1")
    common(p, grid=False)
    p.set_defaults(func=cmd_delta_recover)

    p = sub.add_parser("verify", help="run the certification suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--grid", type=_positive_int, default=gf.DEFAULT_GRID)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="convergence table for a recovery problem")
    p.add_argument("kind", choices=orc.RECOVERY_KINDS)
    p.add_argument("--values", type=_positive_ints, default="", help="comma-separated knot counts")
    p.add_argument("--h", type=_finite, default=0.0, help="0 selects h = 0.05 (b - a) / (2n) per n")
    p.add_argument("--ab", default="0,1")
    p.add_argument("--trials", type=_positive_int, default=50)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every call without ``--config``, built on first use.
    Nothing may mutate it, so that no call leaves state for the next."""
    return _build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # pre-parse the config path so file values become defaults
        cfg_path = None
        for i, tok in enumerate(argv):
            if tok == "--config" and i + 1 < len(argv):
                cfg_path = argv[i + 1]
            elif tok.startswith("--config="):
                cfg_path = tok.split("=", 1)[1]
        config = _load_config(cfg_path)
        # config values are set on a parser of this call's own, never on
        # the shared one, so that they do not outlive the call
        parser = _build_parser() if config else _shared_parser()
        if config:
            for subparser in parser._subparsers._group_actions[0].choices.values():  # type: ignore[union-attr]
                known = {a.dest: a for a in subparser._actions}
                for key, raw in config.items():
                    if key not in known:
                        continue
                    action = known[key]
                    value = action.type(raw) if action.type is not None else raw
                    subparser.set_defaults(**{key: value})
                    action.required = False
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    # an unreadable config file, or a config value of the wrong type
    except (OSError, ValueError, argparse.ArgumentTypeError) as e:
        sys.stderr.write(f"ksr: --config: {e}\n")
        return 1
    try:
        return args.func(args)
    except KsrError as e:
        name = type(e).__name__
        hint = _DIAGNOSTICS.get(name, "precondition violated")
        sys.stderr.write(f"{name}: {hint} ({e})\n")
        return 2
    # OSError: an --out file that cannot be written; every command writes
    # its file before stdout, so stdout stays empty
    except (ValueError, ArithmeticError, OSError) as e:
        sys.stderr.write(f"{type(e).__name__}: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
