"""Command-line interface: eigs, width, bounds, sweep, pswf, verify.

Exit codes: 0 success, 1 verification failure, 2 bad parameters, 3 I/O
failure, 4 numerical failure (an iterative solver did not converge). CSV
schemas are stable: headers are emitted exactly as documented and floats are
printed with 17 significant digits in deterministic row order. JSON output
mirrors the CSV fields one object per row.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import bounds as bnd
from . import spectrum as spec
from . import verification
from .errors import CapacityError, DomainError, NumericalError, ParameterError
from .kernel import ProlateParams, _at_least, dense_cap

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_PARAMS = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

EIGS_HEADER = "k,lambda,lower,upper,in_envelope"
WIDTH_HEADER = "N,W,eps,width,thm1,thm2,eq2,eq3,eq6"
SWEEP_HEADER = "N,W,eps,width,bound_thm1,bound_thm2,gap,advisory"


def _number(kind, name: str, text) -> int | float:
    """``kind(text)`` for an int or float option or config value; ParameterError if malformed."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ParameterError(f"{name} must be {noun}, got {text!r}") from None


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    if x is None:
        return ""
    return str(x)


def _write(text: str, out_path: str | None) -> None:
    """Write ``text`` to stdout, or to ``out_path`` when one is given."""
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _emit(rows: list[dict], header: str, fmt: str, out_path: str | None) -> None:
    cols = header.split(",")
    if fmt == "csv":
        lines = [header]
        lines += [",".join(_fmt(row[c]) for c in cols) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps([{c: row[c] for c in cols} for row in rows], indent=2) + "\n"
    _write(text, out_path)


# ------------------------------------------------------------------- eigs --


def _auto_krange(params: ProlateParams) -> tuple[int, int]:
    """Index window covering all lambda in (1e-13, 1 - 1e-13)."""
    report = spec.transition_width(params, 1e-13)
    if report.k_first is None:
        mid = min(max(params.tbp_floor, 0), params.n - 1)
        return mid, mid
    return report.k_first, report.k_last


def eigs_rows(n: int, w: float, krange: tuple[int, int] | None, method: str) -> list[dict]:
    params = ProlateParams(n, w)
    if krange is None:
        kmin, kmax = _auto_krange(params)
    else:
        kmin, kmax = krange
        if not (0 <= kmin <= kmax <= n - 1):
            raise ParameterError(
                f"--krange must satisfy 0 <= start <= end <= {n - 1}, got {kmin}:{kmax}"
            )
    if method == "dense":
        full = spec.dense_spectrum(params)
        lam = full.lam[kmin : kmax + 1]
    else:
        lam = spec.tridiagonal_spectrum(params, kmin, kmax).lam
    rows = []
    for i, k in enumerate(range(kmin, kmax + 1)):
        env = bnd.eig_envelope(n, w, k)
        val = float(lam[i])
        rows.append(
            {
                "k": k,
                "lambda": val,
                "lower": env.lower,
                "upper": env.upper,
                "in_envelope": bool(env.lower <= val <= env.upper),
            }
        )
    return rows


def cmd_eigs(args) -> int:
    krange = None
    if args.krange:
        lo, _, hi = args.krange.partition(":")
        krange = (_number(int, "--krange start", lo), _number(int, "--krange end", hi))
    rows = eigs_rows(args.n, args.w, krange, args.method)
    _emit(rows, EIGS_HEADER, args.format, args.out)
    return EXIT_OK


# ------------------------------------------------------------------ width --


def width_row(n: int, w: float, eps: float) -> dict:
    params = ProlateParams(n, w)
    # a prior bound outside its domain is left out of the set, and printed empty;
    # the set comes before the count, so that an eps that overflows a bound is
    # reported as such rather than as one below the resolution floor
    ints = {key: val.integer for key, val in bnd.evaluate_bound_set(n, w, eps).items()}
    report = spec.transition_width(params, eps)
    return {
        "N": n,
        "W": w,
        "eps": eps,
        "width": report.width,
        "thm1": ints["thm1"],
        "thm2": ints["thm2"],
        "eq2": ints.get("eq2_zhuwakin"),
        "eq3": ints.get("eq3_boulsane"),
        "eq6": ints["eq6_fst"],
    }


def cmd_width(args) -> int:
    _emit([width_row(args.n, args.w, args.eps)], WIDTH_HEADER, args.format, args.out)
    return EXIT_OK


# ----------------------------------------------------------------- bounds --


def cmd_bounds(args) -> int:
    values = bnd.evaluate_bound_set(args.n, args.w, args.eps, k=args.k, K=args.K)
    flat: dict = {"N": args.n, "W": args.w, "eps": args.eps}
    for key, val in sorted(values.items()):
        if isinstance(val, bnd.BoundValue):
            flat[key] = val.value
            flat[key + "_int"] = val.integer
        elif isinstance(val, bnd.SlepianApprox):
            flat[key] = val.value
            flat[key + "_advisory"] = val.advisory
        else:
            flat[key] = val
    _emit([flat], ",".join(flat.keys()), args.format, args.out)
    return EXIT_OK


# ------------------------------------------------------------------ sweep --


def _sweep_instance(params: ProlateParams, eps_list: list[float]) -> list[dict]:
    """Width rows for one (N, W) at several eps, from one ``transition_widths`` call."""
    rows = []
    for report in spec.transition_widths(params, eps_list):
        eps = report.eps
        b1 = bnd.width_bound_thm1(params.n, eps).integer
        rows.append(
            {
                "N": params.n,
                "W": params.w,
                "eps": eps,
                "width": report.width,
                "bound_thm1": b1,
                "bound_thm2": bnd.width_bound_thm2(params.n, params.w, eps).integer,
                "gap": b1 - report.width,
                "advisory": report.advisory,
            }
        )
    return rows


def sweep_rows(instances: list[tuple[int, float]], eps_list: list[float]) -> list[dict]:
    """Width sweep over (N, W) instances, all checked before any is computed; rows in order."""
    params = [ProlateParams(n, w) for n, w in instances]
    for p in params:  # a width count computes one eigenvector of length N at a time
        spec._check_entries(p.n, 1)
    return [row for p in params for row in _sweep_instance(p, eps_list)]


DEFAULT_EPS_LIST = [1e-3, 1e-8, 1e-13]


def figure2_instances(n_min: int = 2**4, n_max: int = 2**12) -> list[tuple[int, float]]:
    """Powers of two n_min..n_max at the wide bandwidth W = 1/4; n_min >= 1."""
    out = []
    n = _at_least("n_min", n_min, 1)
    while n <= n_max:
        out.append((n, 0.25))
        n *= 2
    return out


def figure3_instances(
    n: int = 2**12, w_lo: float = 2**-10, w_hi: float = 2**-2, points: int = 101
) -> list[tuple[int, float]]:
    """Log-spaced W sweep at fixed N; ends checked first, points capped at dense_cap()**2."""
    limit = dense_cap() ** 2
    if _at_least("w_points", points, 0) > limit:
        raise CapacityError(f"w_points = {points} exceeds entry cap {limit}")
    if not (0.0 < w_lo < 0.5 and 0.0 < w_hi < 0.5):  # both ends, before geomspace sees them
        raise ParameterError(f"need 0 < w_min and w_max < 1/2, got w_min={w_lo}, w_max={w_hi}")
    ws = np.geomspace(w_lo, w_hi, points)
    return [(n, float(w)) for w in ws]


def _number_list(kind, name: str, text: str) -> list:
    """Comma-separated ``kind`` values; an empty entry is a ParameterError."""
    toks = text.split(",")
    if not all(tok.strip() for tok in toks):
        raise ParameterError(f"{name} has an empty entry, got {text!r}")
    return [_number(kind, name, tok) for tok in toks]


#: keys a sweep config may set; ``w`` is the figure1 bandwidth
CONFIG_KEYS = frozenset(
    ("mode", "n_min", "n_max", "n", "w", "w_min", "w_max", "w_points", "eps", "n_list", "w_list")
)


def _read_config(path: str) -> dict:
    """Tiny key = value config: ints, floats, comma lists, bare strings."""
    out: dict = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"bad config line: {raw.rstrip()}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ParameterError(f"unknown config key {key!r} in {path}")
            out[key] = val.strip().strip('"')
    return out


def cmd_sweep(args) -> int:
    cfg = _read_config(args.config) if args.config else {}

    def setting(flag, key: str, default=None):
        # the flag if given, else the config value, else the default; an
        # empty string is given, so it is parsed (and refused) like any value
        return flag if flag is not None else cfg.get(key, default)

    mode = setting(args.mode, "mode", "figure2")
    eps_text = setting(args.eps_list, "eps")
    eps_list = list(DEFAULT_EPS_LIST) if eps_text is None else _number_list(float, "eps", eps_text)

    if mode == "figure1":
        n = _number(int, "n", setting(args.n, "n", 1000))
        w = _number(float, "w", setting(args.w, "w", 0.125))
        rows = eigs_rows(n, w, None, "trid")
        _emit(rows, EIGS_HEADER, args.format, args.out)
        return EXIT_OK
    if mode == "figure2":
        n_min = _number(int, "n_min", setting(args.n_min, "n_min", 2**4))
        n_max = _number(int, "n_max", setting(args.n_max, "n_max", 2**12))
        instances = figure2_instances(n_min, n_max)
    elif mode == "figure3":
        n = _number(int, "n", setting(args.n, "n", 2**12))
        w_lo = _number(float, "w_min", setting(args.w_min, "w_min", 2**-10))
        w_hi = _number(float, "w_max", setting(args.w_max, "w_max", 2**-2))
        points = _number(int, "w_points", setting(args.w_points, "w_points", 101))
        instances = figure3_instances(n, w_lo, w_hi, points)
    elif mode == "custom":
        n_text, w_text = setting(args.n, "n_list"), setting(args.w, "w_list")
        for name, flag, text in (("n_list", "--n", n_text), ("w_list", "--w", w_text)):
            if text is None:
                raise ParameterError(f"custom mode needs {name} ({flag} or config key {name})")
        ns = _number_list(int, "n_list", n_text)
        ws = _number_list(float, "w_list", w_text)
        instances = [(n, w) for n in ns for w in ws]
    else:
        raise ParameterError(f"unknown sweep mode {mode!r}")

    rows = sweep_rows(instances, eps_list)
    _emit(rows, SWEEP_HEADER, args.format, args.out)
    return EXIT_OK


# ------------------------------------------------------------------- pswf --


def pswf_record(c: float, eps: float, n: int | None) -> dict:
    cap = bnd.pswf_width_bound(c, eps)
    record = dict.fromkeys(PSWF_HEADER.split(","))  # N, delta and widths empty without n
    record.update({"c": c, "eps": eps, "thm3": cap.value, "thm3_int": cap.integer})
    if n is not None:
        lo, hi, delta = spec.proxy_width_interval(c, eps, n)
        record.update({"N": n, "delta": delta, "width_lo": lo, "width_hi": hi})
    return record


PSWF_HEADER = "c,eps,thm3,thm3_int,N,delta,width_lo,width_hi"


def cmd_pswf(args) -> int:
    _emit([pswf_record(args.c, args.eps, args.n)], PSWF_HEADER, args.format, args.out)
    return EXIT_OK


# ----------------------------------------------------------------- verify --


def cmd_verify(args) -> int:
    suite = args.suite or "all"
    results = verification.run_suite(suite, seed=args.seed)
    failures = [r.check_id for r in results if not r.passed]
    summary = {
        "suite": suite,
        "seed": args.seed,
        "checks": [r.as_dict() for r in results],
        "n_checks": len(results),
        "failures": failures,
        "passed": not failures,
    }
    _write(json.dumps(summary, indent=2) + "\n", args.out)
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


# ------------------------------------------------------------------- main --


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line, like every other bad parameter."""

    def error(self, message):
        self.exit(EXIT_BAD_PARAMS, f"error: {message}\n")


@functools.cache  # parsing leaves no state behind, so one parser serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="prolate",
        description="DPSS eigenvalues, transition-width bounds, and structural verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n=False, w=False, eps=False):
        if n:
            p.add_argument("--n", type=int, required=n == "req")
        if w:
            p.add_argument("--w", type=float, required=w == "req")
        if eps:
            p.add_argument("--eps", type=float, required=eps == "req")
        p.add_argument("--out", default=None, metavar="PATH")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("eigs", help="eigenvalues with their envelopes")
    common(p, n="req", w="req")
    p.add_argument("--krange", default=None, metavar="A:B")
    p.add_argument("--method", choices=("dense", "trid"), default="trid")
    p.set_defaults(func=cmd_eigs)

    p = sub.add_parser("width", help="transition width and all width bounds")
    common(p, n="req", w="req", eps="req")
    p.set_defaults(func=cmd_width)

    p = sub.add_parser("bounds", help="bound set only, no spectrum computed")
    common(p, n="req", w="req", eps="req")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--K", type=int, default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="width sweeps emitting figure data")
    common(p)
    p.add_argument("--mode", choices=("figure1", "figure2", "figure3", "custom"), default=None)
    for flag in "--n --w --n-min --n-max --w-min --w-max --w-points --eps-list".split():
        p.add_argument(flag)  # text, parsed per mode; dest n_min etc.
    p.add_argument("--config", default=None, metavar="PATH")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pswf", help="continuous-case bound and proxy widths")
    p.add_argument("--c", type=float, required=True)
    common(p, n=True, eps="req")
    p.set_defaults(func=cmd_pswf)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", choices=verification.SUITE_NAMES, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching the bad-parameters contract
        return EXIT_BAD_PARAMS if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ParameterError, DomainError, CapacityError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_BAD_PARAMS
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
