"""Batch front end: correlation tables, identity suites, convergence sweeps.

Exit codes: 0 success, 1 verify failure, 2 usage or file error, 3
refinement did not converge (the report is still written with
diagnostics).
"""

from __future__ import annotations

import argparse
import datetime
import errno
import json
import math
import os
import sys

from . import __version__
from .errors import IsingCorrError, NoConvergence
from .expansions import correlation
from .params import Kind, ModelParams, diagonal_from_alpha2, direct, from_couplings
from .quadrature import DEFAULT_M, DEFAULT_M_MAX, check_M, make_grid, refine_until
from .verify import SUITE_NAMES, run_suite


class UsageError(Exception):
    pass


# ----------------------------------------------------------------------
# flag plumbing
# ----------------------------------------------------------------------

_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _config_value(action: argparse.Action, text: str):
    """text converted and checked as its flag's value: type, arity and choices."""
    if action.nargs == 0:                         # a store_true flag
        if text.lower() not in _BOOLEANS:
            raise ValueError(f"expected one of {', '.join(_BOOLEANS)}")
        return _BOOLEANS[text.lower()]
    tokens = [text] if action.nargs is None else text.split()
    if len(tokens) != (action.nargs or 1):
        raise ValueError(f"expected {action.nargs or 1} value(s), got {len(tokens)}")
    values = [(action.type or str)(tok) for tok in tokens]
    if action.choices is not None and any(v not in action.choices for v in values):
        raise ValueError(f"invalid choice {text!r} "
                         f"(choose from {', '.join(map(str, action.choices))})")
    return values[0] if action.nargs is None else values


def _load_config(path: str, subparsers: list[argparse.ArgumentParser]) -> None:
    """Read `key = value` lines into each subcommand's flag defaults: keys are
    flag names, values pass their flag's checks, and other keys are ignored."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc.strerror}") from None
    actions = [{a.dest: a for a in sp._actions if a.dest != "help"} for sp in subparsers]
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        for sp, by_dest in zip(subparsers, actions):
            action = by_dest.get(key.replace("-", "_"))
            if action is None:
                continue
            try:
                converted = _config_value(action, value)
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
            sp.set_defaults(**{action.dest: converted})


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--diagonal", action="store_true", help="diagonal correlation")
    p.add_argument("--row", action="store_true", help="row correlation")
    p.add_argument("--K1", type=float, help="coupling E1/kT")
    p.add_argument("--K2", type=float, help="coupling E2/kT")
    p.add_argument("--alpha2", type=float, help="alpha2 directly (diagonal only; alpha1 = 0)")
    p.add_argument("--direct", nargs=2, type=float, metavar=("A1", "A2"),
                   help="direct (alpha1, alpha2) input")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--M", type=int, default=DEFAULT_M, help="quadrature nodes (power of two)")
    p.add_argument("--r", type=float, default=None, help="contour radius (default: midpoint)")


def _build_params(ns: argparse.Namespace) -> ModelParams:
    styles = sum([ns.direct is not None,
                  ns.diagonal or ns.row])
    if styles != 1:
        raise UsageError("give exactly one parameter style: "
                         "--direct A1 A2, or --diagonal/--row with couplings")
    if ns.direct is not None:
        return direct(ns.direct[0], ns.direct[1])
    if ns.diagonal and ns.row:
        raise UsageError("--diagonal and --row are mutually exclusive")
    kind = Kind.DIAGONAL if ns.diagonal else Kind.ROW
    if ns.K1 is not None or ns.K2 is not None:
        if ns.K1 is None or ns.K2 is None:
            raise UsageError("couplings need both --K1 and --K2")
        return from_couplings(kind, ns.K1, ns.K2)
    if kind is Kind.DIAGONAL and ns.alpha2 is not None:
        return diagonal_from_alpha2(ns.alpha2)
    raise UsageError("missing couplings (--K1/--K2) or --alpha2 for --diagonal")


def _parse_N(spec: str) -> list[int]:
    out: list[int] = []
    try:
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if ".." in chunk:
                lo, _, hi = chunk.partition("..")
                out.extend(range(int(lo), int(hi) + 1))
            elif chunk:
                out.append(int(chunk))
    except ValueError:
        out = []
    if not out or any(N < 1 or N > 64 for N in out):
        raise UsageError(f"separations {spec!r} must be integers in 1..64")
    return sorted(set(out))


def _parse_routes(spec: str, ensure_det: bool = True) -> list[str]:
    routes = [tok.strip() for tok in spec.split(",") if tok.strip()]
    for tok in routes:
        if tok not in ("det", "exp", "ff"):
            raise UsageError(f"unknown route {tok!r} (pick from det, exp, ff)")
    if not routes:
        raise UsageError("empty route list")
    # comparability guarantee for tables: the oracle rides along with any
    # expansion route (sweeps study one route at a time and skip this)
    if ensure_det and ("exp" in routes or "ff" in routes) and "det" not in routes:
        routes.append("det")
    return sorted(set(routes))


def _parse_int_list(spec: str, what: str) -> list[int]:
    try:
        vals = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad {what} list: {exc}")
    if not vals:
        raise UsageError(f"empty {what} list")
    return vals


def _check_grid(M: int, orders: int = 0, flag: str = "--M") -> tuple[int, int]:
    """(M, orders), checked before any work: make_grid's rule for M, and
    0..3 for orders, which --order-list sets past argparse's choices."""
    try:
        check_M(M)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None
    if not 0 <= orders <= 3:
        raise UsageError(f"orders {orders} must lie in 0..3")
    return M, orders


# ----------------------------------------------------------------------
# report writing
# ----------------------------------------------------------------------

def _fmt(value: float) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    return f"{value:.17g}"


def _header_fields(params: ModelParams, grid_desc: str, n_max: int) -> dict:
    return {
        "tool": "corr",
        "version": __version__,
        "params": params.describe(),
        "grid": grid_desc,
        "n_max": n_max,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _write_report(rows: list[dict], header: dict, fmt: str, out_path: str) -> None:
    if fmt == "csv":
        lines = [
            f"# {header['tool']} v{header['version']} params={header['params']} "
            f"grid={header['grid']} n_max={header['n_max']}",
            f"# timestamp={header['timestamp']}",
            "N,route,value,est_error,M,n_max",
        ]
        for row in rows:
            lines.append(",".join([
                str(row["N"]), row["route"], _fmt(row["value"]),
                _fmt(row["est_error"]), str(row["M"]), str(row["n_max"]),
            ]))
        text = "\n".join(lines) + "\n"
    else:
        clean = []
        for row in rows:
            row = dict(row)
            if isinstance(row["est_error"], float) and math.isnan(row["est_error"]):
                row["est_error"] = None
            clean.append(row)
        text = json.dumps({"header": header, "rows": clean}, indent=2) + "\n"
    _emit(text, out_path)


def _check_out(out_path: str) -> None:
    """Refuse an --out path that cannot be written, before any work and
    without creating it: an existing path must be a writable file, a new
    one needs a writable directory.  "-" is stdout."""
    if out_path == "-":
        return
    folder = os.path.dirname(out_path) or "."
    if os.path.isdir(out_path):
        code = errno.EISDIR
    elif not os.path.exists(folder):
        code = errno.ENOENT
    elif not os.path.isdir(folder):
        code = errno.ENOTDIR
    elif not os.access(out_path if os.path.exists(out_path) else folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write {out_path}: {os.strerror(code)}")


def _emit(text: str, out_path: str) -> None:
    """Write text to out_path, or to stdout for "-"."""
    if out_path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out_path}: {exc.strerror}") from None


def _terms_summary(entry) -> list[dict]:
    return [{"order": t.order, "N": t.N, "value": t.value,
             "est_error": t.est_error, "method": t.method.value} for t in entry.terms]


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_table(ns: argparse.Namespace) -> int:
    params = _build_params(ns)
    seps = _parse_N(ns.N)
    routes = _parse_routes(ns.routes)
    _check_grid(ns.M, ns.orders)
    _check_out(ns.out)
    if ns.tol is not None:
        if not (math.isfinite(ns.tol) and ns.tol >= 0.0):
            raise UsageError(f"--tol {ns.tol} must be finite and >= 0")
        _check_grid(ns.M_max, flag="--M-max")
        if ns.M_max < ns.M:
            raise UsageError(f"--M-max {ns.M_max} must be at least --M {ns.M}")
    rows = []
    hit_cap = False
    grid = make_grid(params, ns.M, ns.r)
    for N in seps:
        for route in routes:
            if ns.tol is None:
                entry = correlation(params, N, route, ns.orders, grid)
                rows.append({"N": N, "route": route, "value": entry.value,
                             "est_error": entry.est_error, "M": grid.M,
                             "n_max": ns.orders, "terms": _terms_summary(entry)})
                continue
            # refinement mode: double M until the route value settles
            last = {}

            def one(M: int, _N=N, _route=route) -> float:
                g = make_grid(params, M, ns.r)
                entry = correlation(params, _N, _route, ns.orders, g)
                last[M] = entry
                return entry.value

            try:
                value, est, M_used = refine_until(one, ns.tol, M_start=ns.M, M_max=ns.M_max)
            except NoConvergence as exc:
                hit_cap = True
                value, est, M_used = exc.value, exc.est_error, exc.M_used
            rows.append({"N": N, "route": route, "value": float(value),
                         "est_error": float(est), "M": M_used, "n_max": ns.orders,
                         "terms": _terms_summary(last[M_used])})
    rows.sort(key=lambda row: (row["N"], row["route"]))
    grid_desc = f"M={ns.M},r={'auto' if ns.r is None else repr(ns.r)}"
    _write_report(rows, _header_fields(params, grid_desc, ns.orders), ns.format, ns.out)
    return 3 if hit_cap else 0


def cmd_verify(ns: argparse.Namespace) -> int:
    if ns.suite not in SUITE_NAMES + ("all",):
        raise UsageError(f"unknown suite {ns.suite!r}; pick from {', '.join(SUITE_NAMES + ('all',))}")
    _check_grid(ns.M)
    if ns.trials < 1:
        raise UsageError(f"--trials {ns.trials} must be at least 1")
    if ns.seed < 0:
        raise UsageError(f"--seed {ns.seed} must be non-negative")
    _check_out(ns.out)
    records = run_suite(ns.suite, trials=ns.trials, seed=ns.seed, M=ns.M)
    report = {
        "suite": ns.suite,
        "trials": ns.trials,
        "seed": ns.seed,
        "M": ns.M,
        "version": __version__,
        "records": records,
        "all_pass": all(rec["pass"] for rec in records),
    }
    _emit(json.dumps(report, indent=2) + "\n", ns.out)
    return 0 if report["all_pass"] else 1


def cmd_sweep(ns: argparse.Namespace) -> int:
    params = _build_params(ns)
    seps = _parse_N(ns.N)
    routes = _parse_routes(ns.routes, ensure_det=False)
    if (ns.M_list is None) == (ns.order_list is None):
        raise UsageError("give exactly one of --M-list or --order-list")
    # one (M, n_max) setting per step of the study; the header names the
    # grids swept and the largest order used
    if ns.M_list is not None:
        settings = [_check_grid(M, ns.orders, "--M-list") for M in _parse_int_list(ns.M_list, "M")]
        grid_M = ",".join(str(M) for M, _ in settings)
    else:
        settings = [_check_grid(ns.M, n) for n in _parse_int_list(ns.order_list, "order")]
        grid_M = ns.M
    _check_out(ns.out)
    rows = []
    for N in seps:
        for route in routes:
            prev = None
            for M, n_max in settings:
                entry = correlation(params, N, route, n_max, make_grid(params, M, ns.r))
                diff = float("nan") if prev is None else abs(entry.value - prev)
                rows.append({"N": N, "route": route, "value": entry.value,
                             "est_error": diff, "M": M, "n_max": n_max})
                prev = entry.value
    grid_desc = f"M={grid_M},r={'auto' if ns.r is None else repr(ns.r)}"
    n_max = max(n for _, n in settings)
    _write_report(rows, _header_fields(params, grid_desc, n_max), ns.format, ns.out)
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _build_parser() -> tuple[argparse.ArgumentParser, list[argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="corr",
        description="Ising pair correlations by determinant, exponential and "
                    "form factor routes, with identity verification suites.",
    )
    parser.add_argument("--config", help="key = value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="correlation table across separations")
    _add_param_flags(t)
    _add_grid_flags(t)
    t.add_argument("--N", default="1..6", help="separations, e.g. 3 or 1..6 or 1,3,5")
    t.add_argument("--orders", type=int, default=3, choices=range(0, 4),
                   help="truncation order n_max")
    t.add_argument("--routes", default="det,exp,ff",
                   help="comma list from det,exp,ff (det is added whenever an "
                        "expansion route is requested)")
    t.add_argument("--tol", type=float, default=None,
                   help="refine M until successive values agree to this tolerance")
    t.add_argument("--M-max", dest="M_max", type=int, default=DEFAULT_M_MAX,
                   help="refinement cap")
    t.add_argument("--format", choices=("csv", "json"), default="csv")
    t.add_argument("--out", default="-", help="output path, - for stdout")
    t.set_defaults(func=cmd_table)

    v = sub.add_parser("verify", help="run identity suites")
    v.add_argument("--suite", default="all",
                   help=f"one of {', '.join(SUITE_NAMES + ('all',))}")
    v.add_argument("--trials", type=int, default=100, help="random point sets per identity")
    v.add_argument("--seed", type=int, default=0, help="random seed")
    v.add_argument("--M", type=int, default=DEFAULT_M, help="quadrature nodes")
    v.add_argument("--out", default="-", help="output path, - for stdout")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("sweep", help="convergence study over M or truncation order")
    _add_param_flags(s)
    _add_grid_flags(s)
    s.add_argument("--N", default="3", help="separations, e.g. 3 or 1..6")
    s.add_argument("--orders", type=int, default=3, choices=range(0, 4))
    s.add_argument("--routes", default="exp")
    s.add_argument("--M-list", dest="M_list", default=None, help="e.g. 16,32,64,128")
    s.add_argument("--order-list", dest="order_list", default=None, help="e.g. 1,2,3")
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.add_argument("--out", default="-", help="output path, - for stdout")
    s.set_defaults(func=cmd_sweep)
    return parser, [t, v, s]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _build_parser()
    try:
        # pre-scan for --config so its values become flag defaults; they
        # must land on each subparser (subcommands parse into their own
        # namespace) and only for destinations the flags actually define
        probe = argparse.ArgumentParser(add_help=False)
        probe.add_argument("--config")
        known, _ = probe.parse_known_args(argv)
        if known.config:
            _load_config(known.config, subparsers)
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except UsageError as exc:
        print(f"corr: {exc}", file=sys.stderr)
        return 2
    except IsingCorrError as exc:
        print(f"corr: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
