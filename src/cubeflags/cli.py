"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 capacity/guard/numeric-bound error,
3 certificate failure (check command only), 141 output closed by its reader
(as a SIGPIPE death; nothing is printed on stderr).  All floating point
output is printed at 16 significant digits, and every JSON document carries
a schema field, so identical (command, seed) invocations are byte-identical
across runs.  Every computation runs serially; --workers is accepted and ignored.
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
import os
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


def _open(path: Optional[str], mode: str = "w"):
    """open(path, mode), or stdout when no path is given.  A path that cannot
    be opened (missing, a directory, not permitted) is a usage error."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, mode)
    except OSError as exc:
        raise UsageError(str(exc)) from exc


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
    with _open(args.file, "r") as fh:
        return flags_mod.parse_flag_text(fh.read())


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
    _emit_json(cert, args.out)
    return 0 if cert["ok"] else 3


def _cmd_measures(args) -> int:
    flag = _build_flag(args)
    _emit_json(optmeas.measures_json_dict(optmeas.optimal_measure(flag)), args.out)
    return 0


def _cmd_tree(args) -> int:
    flag = _build_flag(args)
    # the tree document holds no floats, so it needs no _round16 walk
    _write(json.dumps(flags_mod.tree_json_dict(flag), indent=2) + "\n", args.out)
    return 0


def _sim_equal_sums(args) -> int:
    doc = simlab.equal_sums_probability(args.D, args.c, args.k, args.trials, args.seed)
    if args.out:
        rows = simlab.equal_sums_rows(args.D, args.c, args.k, args.trials, args.seed)
        _emit_rows(rows, ["trial", "set_size", "k_max", "exact"], "csv", args.out)
    if args.json:
        _emit_json(doc, None)
    else:
        lo, hi = doc["ci95"]
        print(
            f"estimate {_fmt(doc['estimate'])}  ci95 [{_fmt(lo)}, {_fmt(hi)}]"
            f"  successes {doc['successes']}/{doc['trials']}  window {tuple(doc['window'])}"
        )
    return 0


def _sim_amplify(args) -> int:
    doc = simlab.amplify_demo(args.D1, args.D2, args.k, args.alpha, args.seed)
    if args.json:
        _emit_json(doc, None)
    else:
        print(f"multiplicity {doc['k_max']} from {sum(w['success'] for w in doc['windows'])} "
              f"successful windows; common sum {doc['witness_sum']}")
    return 0


def _sim_delta_int(args) -> int:
    return _emit_delta(args, "integer", simlab.sample_delta_integer(args.X, args.samples, args.seed))


def _sim_delta_perm(args) -> int:
    return _emit_delta(args, "permutation", simlab.sample_delta_perm(args.n, args.samples, args.seed))


def _sim_delta_poly(args) -> int:
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
    samples = simlab.sample_delta_poly(args.q, args.n, args.model, args.samples, args.seed, d_range)
    return _emit_delta(args, "polynomial", samples)


def _emit_delta(args, kind: str, samples) -> int:
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


def _cmd_simulate(args) -> int:
    return _EXPERIMENTS[args.experiment][2](args)


# Options of each command, added to its parser only when it is the one run.


def _rho_table_options(s: argparse.ArgumentParser):
    s.add_argument("--max-j", type=int, default=13)
    s.add_argument("--format", choices=("table", "json", "csv"), default="csv")
    s.add_argument("--out")


def _rho_limit_options(s: argparse.ArgumentParser):
    s.add_argument("--tol", type=float, default=1e-15)
    s.add_argument("--json", action="store_true")


def _theta_options(s: argparse.ArgumentParser):
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--json", action="store_true")


def _flag_options(s: argparse.ArgumentParser):
    s.add_argument("--flag", choices=("binary", "mt", "file"), required=True)
    s.add_argument("--order", type=int, default=2)
    s.add_argument("--file", help="flag specification file (with --flag file)")
    s.add_argument("--out")


def _check_options(s: argparse.ArgumentParser):
    _flag_options(s)
    s.add_argument("--perturb", type=float, action="append", default=None,
                   help="extra threshold perturbation epsilon (repeatable)")


def _equal_sums_options(s: argparse.ArgumentParser):
    s.add_argument("--D", type=float, default=1e6)
    s.add_argument("--c", type=float, default=0.1)
    s.add_argument("--k", type=int, default=2)
    s.add_argument("--trials", type=int, default=200)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--json", action="store_true")
    s.add_argument("--out", help="write per-trial census rows as CSV")


def _amplify_options(s: argparse.ArgumentParser):
    s.add_argument("--D1", type=int, default=2)
    s.add_argument("--D2", type=int, default=10**6)
    s.add_argument("--k", type=int, default=2)
    s.add_argument("--alpha", type=float, default=0.5)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--json", action="store_true")


def _delta_options(s: argparse.ArgumentParser):
    s.add_argument("--samples", "--trials", dest="samples", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--json", action="store_true")
    s.add_argument("--out")


def _delta_int_options(s: argparse.ArgumentParser):
    s.add_argument("--X", type=int, default=10**9)
    _delta_options(s)


def _delta_perm_options(s: argparse.ArgumentParser):
    s.add_argument("--n", type=int, default=100)
    _delta_options(s)


def _delta_poly_options(s: argparse.ArgumentParser):
    s.add_argument("--q", type=int, default=2)
    s.add_argument("--n", type=int, default=2000)
    s.add_argument("--model", choices=("poisson", "nb"), default="poisson")
    s.add_argument("--samples", "--trials", dest="samples", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--dmin", type=int, default=None)
    s.add_argument("--dmax", type=int, default=None)
    s.add_argument("--json", action="store_true")
    s.add_argument("--out")


# name: (help, options, handler).  The options of simulate are the table of
# its experiments, whose entries take the same form.
_EXPERIMENTS = {
    "equal-sums": ("k-fold equal subset sums in a window of a logarithmic random set",
                   _equal_sums_options, _sim_equal_sums),
    "amplify": ("stack per-window equal sums into a multiplicative family", _amplify_options, _sim_amplify),
    "delta-int": ("divisor-window statistic of random integers", _delta_int_options, _sim_delta_int),
    "delta-perm": ("divisor-length statistic of random permutations", _delta_perm_options, _sim_delta_perm),
    "delta-poly": ("divisor-degree statistic of random polynomial factor laws", _delta_poly_options,
                   _sim_delta_poly),
}
_COMMANDS = {
    "rho-table": ("solve the chain of tree fixed-point equations; one row per index", _rho_table_options,
                  _cmd_rho_table),
    "rho-limit": ("the limit of the chain, from its scalar equation", _rho_limit_options, _cmd_rho_limit),
    "theta": ("lower-bound exponent of the order-r binary flag", _theta_options, _cmd_theta),
    "eta": ("divisor-concentration exponent log 2 / log(2/rho)", lambda s: None, _cmd_eta),
    "constants": ("every named constant, as JSON", lambda s: s.add_argument("--out"), _cmd_constants),
    "check": ("build the extremal system of a flag and emit its entropy certificate", _check_options,
              _cmd_check),
    "measures": ("dump the extremal measure, thresholds, entropies", _flag_options, _cmd_measures),
    "tree": ("dump the cell tree (levels, genotypes, members)", _flag_options, _cmd_tree),
    "simulate": ("seeded Monte Carlo experiments", _EXPERIMENTS, _cmd_simulate),
}


def _add_commands(sub, table: dict, argv: Optional[Sequence[str]]):
    """Register every command of the table with its help, and give options
    (-h included) only to the one that argv names: its first token that is
    a command, since only --workers N and -h can come before it.  With argv
    None every command gets its options."""
    named = None if argv is None else next((t for t in argv if t in table), None)
    for name, (help_, options, _) in table.items():
        full = argv is None or name == named
        s = sub.add_parser(name, help=help_, add_help=full)
        if not full:
            continue
        if isinstance(options, dict):
            _add_commands(s.add_subparsers(dest="experiment", required=True), options, argv)
        else:
            options(s)


def build_parser(argv: Optional[Sequence[str]] = None) -> _Parser:
    """The parser for argv, with options for the command argv names only;
    with no argv, the parser of every command."""
    p = _Parser(
        prog="cubeflags",
        description=(
            "Constants and certificates for equal subset sums in logarithmic "
            "random sets and the concentration of divisors."
        ),
    )
    p.add_argument("--workers", type=int, default=None,
                   help="accepted and ignored: every computation runs serially")
    _add_commands(p.add_subparsers(dest="command", required=True), _COMMANDS, argv)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
        return _COMMANDS[args.command][2](args)
    except CubeflagsError as exc:  # first: DimensionMismatchError is also a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed the output (`| head`): end quietly, as a SIGPIPE
        # death would, with stdout on devnull so the final flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
