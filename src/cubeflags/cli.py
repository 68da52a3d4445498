"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 capacity/guard/numeric-bound error,
3 certificate failure (check command only).  All floating point output is
printed at 16 significant digits, and every JSON document carries a schema
field, so identical (command, seed) invocations are byte-identical across
runs.  Every computation runs serially; --workers is accepted and ignored.
There is no preset file: each command reads only its own options, and the
size guards (such as the subflag cap, flags.SUBFLAG_SPACE_CAP) are module
constants, past which a command exits 2.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import gc
import json
import sys
from typing import Iterable, Optional, Sequence

from . import flags as flags_mod
from . import optmeas, rho, simlab
from .errors import CubeflagsError

# Every command runs in a fresh interpreter, and the ~22,000 objects that
# numpy and cubeflags create at import live until it exits.  Moving them into
# the permanent generation spares every full collection of the run, and the
# ones CPython makes at shutdown, from walking them again (~35 ms per command
# on a 2-core VM).  The import leaves no cyclic garbage, so no collect()
# comes first (the tests check this).  The library alone freezes nothing.
gc.freeze()


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x) -> str:
    return format(float(x), ".16g")


def _round16(obj):
    """Pin every float in a JSON-able structure to 16 significant digits."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round16(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round16(v) for v in obj]
    return obj


def _open(out: Optional[str]):
    return open(out, "w") if out else contextlib.nullcontext(sys.stdout)


def _write(text: str, out: Optional[str]):
    with _open(out) as fh:
        fh.write(text)


def _emit_json(doc: dict, out: Optional[str]):
    _write(json.dumps(_round16(doc), indent=2) + "\n", out)


def _emit_rows(rows: Iterable[dict], header: list[str], fmt: str, out: Optional[str]):
    """Write rows as CSV, each as it comes (a stopped run leaves the rows
    written so far), or as an aligned table of the list rows."""
    if fmt == "csv":
        with _open(out) as fh:
            writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        return
    widths = {h: max(len(h), *(len(str(r[h])) for r in rows)) if rows else len(h) for h in header}
    lines = ["  ".join(h.ljust(widths[h]) for h in header)]
    for r in rows:
        lines.append("  ".join(str(r[h]).ljust(widths[h]) for h in header))
    _write("\n".join(lines) + "\n", out)


def _build_flag(args) -> flags_mod.Flag:
    if args.flag == "binary":
        return flags_mod.binary_flag(args.order)
    if args.flag == "mt":
        return flags_mod.mt_flag(args.order)
    if not args.file:  # --flag file
        raise UsageError("--flag file requires --file PATH")
    with open(args.file) as fh:
        return flags_mod.parse_flag_text(fh.read())


def _add_flag_options(s: argparse.ArgumentParser):
    s.add_argument("--flag", choices=("binary", "mt", "file"), required=True)
    s.add_argument("--order", type=int, default=2)
    s.add_argument("--file", help="flag specification file (with --flag file)")
    s.add_argument("--out")


def build_parser() -> _Parser:
    p = _Parser(
        prog="cubeflags",
        description=(
            "Constants and certificates for equal subset sums in logarithmic "
            "random sets and the concentration of divisors."
        ),
    )
    p.add_argument("--workers", type=int, default=None,
                   help="accepted and ignored: every computation runs serially")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser(
        "rho-table",
        help="solve the chain of tree fixed-point equations; one row per index",
    )
    s.add_argument("--max-j", type=int, default=13)
    s.add_argument("--format", choices=("table", "json", "csv"), default="csv")
    s.add_argument("--out")

    s = sub.add_parser("rho-limit", help="the limit of the chain, from its scalar equation")
    s.add_argument("--tol", type=float, default=1e-15)
    s.add_argument("--json", action="store_true")

    s = sub.add_parser("theta", help="lower-bound exponent of the order-r binary flag")
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--json", action="store_true")

    sub.add_parser("eta", help="divisor-concentration exponent log 2 / log(2/rho)")

    s = sub.add_parser("constants", help="every named constant, as JSON")
    s.add_argument("--out")

    s = sub.add_parser(
        "check",
        help="build the extremal system of a flag and emit its entropy certificate",
    )
    _add_flag_options(s)
    s.add_argument("--perturb", type=float, action="append", default=None,
                   help="extra threshold perturbation epsilon (repeatable)")

    s = sub.add_parser("measures", help="dump the extremal measure, thresholds, entropies")
    _add_flag_options(s)

    s = sub.add_parser("tree", help="dump the cell tree (levels, genotypes, members)")
    _add_flag_options(s)

    sim = sub.add_parser("simulate", help="seeded Monte Carlo experiments")
    simsub = sim.add_subparsers(dest="experiment", required=True)

    s = simsub.add_parser("equal-sums", help="k-fold equal subset sums in a window of a logarithmic random set")
    s.add_argument("--D", type=float, default=1e6)
    s.add_argument("--c", type=float, default=0.1)
    s.add_argument("--k", type=int, default=2)
    s.add_argument("--trials", type=int, default=200)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--json", action="store_true")
    s.add_argument("--out", help="write per-trial census rows as CSV")

    s = simsub.add_parser("amplify", help="stack per-window equal sums into a multiplicative family")
    s.add_argument("--D1", type=int, default=2)
    s.add_argument("--D2", type=int, default=10**6)
    s.add_argument("--k", type=int, default=2)
    s.add_argument("--alpha", type=float, default=0.5)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--json", action="store_true")

    s = simsub.add_parser("delta-int", help="divisor-window statistic of random integers")
    s.add_argument("--X", type=int, default=10**9)
    s.add_argument("--samples", "--trials", dest="samples", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--json", action="store_true")
    s.add_argument("--out")

    s = simsub.add_parser("delta-perm", help="divisor-length statistic of random permutations")
    s.add_argument("--n", type=int, default=100)
    s.add_argument("--samples", "--trials", dest="samples", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--json", action="store_true")
    s.add_argument("--out")

    s = simsub.add_parser("delta-poly", help="divisor-degree statistic of random polynomial factor laws")
    s.add_argument("--q", type=int, default=2)
    s.add_argument("--n", type=int, default=2000)
    s.add_argument("--model", choices=("poisson", "nb"), default="poisson")
    s.add_argument("--samples", "--trials", dest="samples", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--dmin", type=int, default=None)
    s.add_argument("--dmax", type=int, default=None)
    s.add_argument("--json", action="store_true")
    s.add_argument("--out")

    return p


def _cmd_rho_table(args) -> int:
    sol, _ = rho.solve_rho_chain(args.max_j)
    rows = [
        {"j": j, "rho_j": _fmt(x), "residual": _fmt(res)}
        for j, (x, res) in enumerate(zip(sol.rhos, sol.residuals), start=1)
    ]
    if args.format == "json":
        _emit_json({"schema": "cubeflags.rhotable.v1", "rows": rows}, args.out)
    else:
        _emit_rows(rows, ["j", "rho_j", "residual"], args.format, args.out)
    return 0


def _cmd_rho_limit(args) -> int:
    res = rho.rho_limit(args.tol)
    if args.json:
        _emit_json(
            {
                "schema": "cubeflags.rholimit.v1",
                "value": res.value,
                "series_terms_used": res.terms_used,
                "series_tail_bound": res.tail_bound,
                "equation_residual": res.residual,
            },
            None,
        )
    else:
        print(_fmt(res.value))
    return 0


def _cmd_theta(args) -> int:
    table_j = min(max(args.r - 1, 1), rho.CHAIN_J)
    sol, _ = rho.solve_rho_chain(table_j)
    val = rho.theta(args.r, sol)
    padded = args.r - 1 > len(sol.rhos)
    if args.json:
        _emit_json(
            {
                "schema": "cubeflags.theta.v1",
                "r": args.r,
                "theta": val,
                "chain_solved_to": len(sol.rhos),
                "padded_with_limit": padded,
            },
            None,
        )
    else:
        print(_fmt(val))
    return 0


def _cmd_eta(args) -> int:
    print(_fmt(rho.eta(rho.rho_limit().value)))
    return 0


def _cmd_constants(args) -> int:
    _emit_json(rho.constants(), args.out)
    return 0


def _cmd_check(args) -> int:
    flag = _build_flag(args)
    eps = list(optmeas.PERTURB_EPSILONS)
    if args.perturb:
        eps.extend(args.perturb)
    _system, cert = optmeas.certify_system(flag, eps_list=eps)
    _emit_json(cert.to_json_dict(), args.out)
    return 0 if cert.ok else 3


def _cmd_measures(args) -> int:
    flag = _build_flag(args)
    _emit_json(optmeas.measures_json_dict(optmeas.optimal_measure(flag)), args.out)
    return 0


def _cmd_tree(args) -> int:
    flag = _build_flag(args)
    # the tree document holds no floats, so it needs no _round16 walk
    _write(json.dumps(flags_mod.tree_json_dict(flag), indent=2) + "\n", args.out)
    return 0


def _cmd_simulate(args) -> int:
    if args.experiment == "equal-sums":
        est = simlab.equal_sums_probability(args.D, args.c, args.k, args.trials, args.seed)
        if args.out:
            rows = simlab.equal_sums_rows(args.D, args.c, args.k, args.trials, args.seed)
            _emit_rows(rows, ["trial", "set_size", "k_max", "exact"], "csv", args.out)
        doc = {
            "schema": "cubeflags.equalsums.v1",
            "D": est.D,
            "c": est.c,
            "k": est.k,
            "trials": est.trials,
            "successes": est.successes,
            "estimate": est.estimate,
            "ci95": [est.ci_low, est.ci_high],
            "inexact_trials": est.inexact_trials,
            "window": list(est.window),
            "note": "qualitative; no finite-D agreement with asymptotic thresholds is claimed",
        }
        if args.json:
            _emit_json(doc, None)
        else:
            print(
                f"estimate {_fmt(est.estimate)}  ci95 [{_fmt(est.ci_low)}, {_fmt(est.ci_high)}]"
                f"  successes {est.successes}/{est.trials}  window {est.window}"
            )
        return 0
    if args.experiment == "amplify":
        res = simlab.amplify_demo(args.D1, args.D2, args.k, args.alpha, args.seed)
        doc = {
            "schema": "cubeflags.amplify.v1",
            "k_max": res.k_max,
            "witness_sum": res.witness_sum,
            "witnesses": [list(w) for w in res.witnesses[:128]],
            "windows": res.detail["windows"],
        }
        if args.json:
            _emit_json(doc, None)
        else:
            print(f"multiplicity {res.k_max} from {res.detail['successful_windows']} successful windows; "
                  f"common sum {res.witness_sum}")
        return 0
    if args.experiment == "delta-int":
        kind, samples = "integer", simlab.sample_delta_integer(args.X, args.samples, args.seed)
    elif args.experiment == "delta-perm":
        kind, samples = "permutation", simlab.sample_delta_perm(args.n, args.samples, args.seed)
    else:  # delta-poly
        d_range = None
        if (args.dmin is None) != (args.dmax is None):
            missing = "--dmax" if args.dmax is None else "--dmin"
            raise UsageError(f"--dmin and --dmax go together: {missing} is missing")
        if args.dmin is not None:
            d_range = (args.dmin, args.dmax)
        else:
            lo, hi = simlab.lemma_degree_range(args.n)
            if lo > hi:
                print(
                    f"note: default degree window [{lo}, {hi}] is empty at n={args.n}; "
                    "pass --dmin/--dmax for a nonvacuous simulation",
                    file=sys.stderr,
                )
        kind, samples = "polynomial", simlab.sample_delta_poly(
            args.q, args.n, args.model, args.samples, args.seed, d_range)
    count = total = top = 0  # the summary, folded as the samples go by: the sum is exact

    def rows():
        nonlocal count, total, top
        for count, s in enumerate(samples, 1):
            total, top = total + s.delta, max(top, s.delta)
            yield {"trial": count - 1, "param": s.param, "delta": s.delta}

    if args.out:
        _emit_rows(rows(), ["trial", "param", "delta"], "csv", args.out)
    else:
        collections.deque(rows(), maxlen=0)
    if args.json:
        _emit_json(
            {"schema": "cubeflags.delta.v1", "kind": kind, "samples": count, "mean_delta": total / count,
             "max_delta": top},
            None,
        )
    else:
        print(f"samples {count}  mean delta {_fmt(total / count)}  max {top}")
    return 0


_COMMANDS = {
    "rho-table": _cmd_rho_table,
    "rho-limit": _cmd_rho_limit,
    "theta": _cmd_theta,
    "eta": _cmd_eta,
    "constants": _cmd_constants,
    "check": _cmd_check,
    "measures": _cmd_measures,
    "tree": _cmd_tree,
    "simulate": _cmd_simulate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CubeflagsError as exc:  # first: DimensionMismatchError is also a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, FileNotFoundError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
