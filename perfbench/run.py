"""cubeflags benchmark: runs a named workload against the CLI and reports.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record-digests

Run it from the root of a checkout; it runs ``src/cubeflags`` from there.
Every command is a fresh interpreter (``perfbench/child.py``), one at a time,
as a single user pays for it: cold ``lru_cache``s, numpy import included.

With ``--trace 0`` the workload's pass is repeated for about ``--seconds``;
``setup_s`` is the median over launches and ``pass_s`` the mean over passes.
With ``--trace 1`` every workload runs once untraced and once traced
(``perfbench/tracer.py``), so the per-layer metrics cover every layer
whichever workload is named; ``--seconds`` does not apply.  Either way
every output is checked, and the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it are
a readable report with tails and sample counts.  Exit code 0 when every
command passed its checks, 1 when one failed, 2 when the checkout has no
``src/cubeflags``.

Why the workloads and metrics are what they are: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
REPORT_MARK = "\x1eperfbench "  # as in child.py

DEFAULT_SEED = 20260810  # the acceptance suite's equal-sums seed
RUN_SECONDS = 40  # BENCHMARK.json's run_seconds
CMD_TIMEOUT_S = 60.0  # the slowest command takes ~7 s
RUN_DEADLINE_S = 150.0  # no command starts, or runs on, past this
ADDRESS_SPACE_BYTES = 1 << 30  # normal commands peak below 400 MB of VM
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    seeded: bool = False  # stdout depends on --seed
    check: Optional[Callable[[dict], bool]] = None  # on the JSON stdout
    same_as: Optional[str] = None  # label whose stdout must be identical
    rate: Optional[str] = None  # throughput metric this command feeds
    units: int = 0  # trials or samples it performs


def _cert(subflags: Optional[int] = None) -> Callable[[dict], bool]:
    def ok(doc: dict) -> bool:
        return doc["ok"] is True and (
            subflags is None or len(doc["entropy_report"]["entries"]) == subflags
        )
    return ok


def _count(key: str, n: int) -> Callable[[dict], bool]:
    return lambda doc: doc[key] == n


def _check_cmd(label: str, *args: str, subflags: Optional[int] = None) -> Command:
    return Command(label, ("--workers", "1", "check", *args), check=_cert(subflags))


def _paper_certs(seed: int) -> list[Command]:
    return [
        _check_cmd("check-binary-1", "--flag", "binary", "--order", "1"),
        _check_cmd("check-binary-2", "--flag", "binary", "--order", "2"),
        _check_cmd("check-mt-2", "--flag", "mt", "--order", "2"),
        _check_cmd("check-mt-3", "--flag", "mt", "--order", "3"),
        Command("rho-table", ("--workers", "1", "rho-table", "--max-j", "13")),
        Command("constants", ("--workers", "1", "constants")),
        Command("theta-8", ("--workers", "1", "theta", "--r", "8")),
    ]


def _large_cube_cert(seed: int) -> list[Command]:
    return [_check_cmd("check-mt4-q12", "--flag", "file", "--file", "perfbench/mt4_q12.flag",
                   subflags=120)]


SMALL_GRID_C = ("0.02", "0.05", "0.0898", "0.15", "0.3")


def _monte_carlo(seed: int) -> list[Command]:
    def sim(label, workers, *args, rate, units, key, same_as=None):
        argv = ("--workers", str(workers), "simulate", *args, "--seed", str(seed), "--json")
        return Command(label, argv, True, _count(key, units), same_as, rate, units)

    cmds = []
    for workers, rate in ((1, "sums_small_trials_per_s"), (2, "sums_small_trials_per_s_w2")):
        for c in SMALL_GRID_C:
            cmds.append(sim(
                f"sums-small-c{c}-w{workers}", workers, "equal-sums", "--D", "1e6", "--c", c,
                "--k", "2", "--trials", "2000", rate=rate, units=2000, key="trials",
                same_as=f"sums-small-c{c}-w1" if workers == 2 else None))
    return cmds + [
        sim("sums-large", 1, "equal-sums", "--D", "1e8", "--c", "0.02", "--k", "2",
            "--trials", "500", rate="sums_large_trials_per_s", units=500, key="trials"),
        sim("delta-poly", 1, "delta-poly", "--q", "2", "--n", "2000", "--model", "nb",
            "--dmin", "2", "--dmax", "750", "--samples", "50",
            rate="delta_poly_samples_per_s", units=50, key="samples"),
        sim("delta-int", 1, "delta-int", "--X", "1125899906842624", "--samples", "1000",
            rate="factor_samples_per_s", units=1000, key="samples"),
        sim("delta-perm", 1, "delta-perm", "--n", "400", "--samples", "500",
            rate="perm_samples_per_s", units=500, key="samples"),
    ]


# Launched before each timed pass, so that large-cube-cert, with one command
# per pass, has two set-up samples per pass.  It prints nothing.
SETUP_PROBE = Command("setup-probe", ())
PROBE_DIGEST = {"setup-probe": hashlib.sha256(b"").hexdigest()}

WORKLOADS: dict[str, Callable[[int], list[Command]]] = {
    "paper-certs": _paper_certs,
    "large-cube-cert": _large_cube_cert,
    "monte-carlo": _monte_carlo,
}

# BENCHMARK.json's end_to_end metrics, which every workload reports in its
# JSON line.  peak_rss_mb and the monte-carlo rates are printed in the report
# lines only: the rates exist on one workload, and the monte-carlo peak RSS
# jumps between ~64 and ~94 MB with the seed, as the census dict resizes.
END_TO_END = [("setup_s", "s"), ("pass_s", "s")]
RATES = ["sums_small_trials_per_s", "sums_small_trials_per_s_w2", "sums_large_trials_per_s",
         "delta_poly_samples_per_s", "factor_samples_per_s", "perm_samples_per_s"]
UNITS = dict(END_TO_END, peak_rss_mb="MB", **{r: "1/s" for r in RATES})


# ---------------------------------------------------------------------------
# Running commands


@dataclass
class Result:
    cmd: Command
    rc: Optional[int]
    wall: float
    stdout: bytes = b""
    setup: Optional[float] = None  # launch to cubeflags.cli imported
    rss_mb: Optional[float] = None
    trace: Optional[dict] = None
    error: Optional[str] = None


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def run_command(root: Path, cmd: Command, trace: bool, deadline: float) -> Result:
    """Run one command in a fresh interpreter, guarded by a timeout and an
    address-space limit; a command that breaks either is killed and fails."""
    timeout = min(CMD_TIMEOUT_S, deadline - time.perf_counter())
    if timeout <= 0:
        return Result(cmd, None, 0.0, error="not started: run deadline passed")
    argv = [sys.executable, str(HERE / "child.py"), "1" if trace else "0", *cmd.argv]
    env = {k: v for k, v in os.environ.items() if k != "CUBEFLAGS_WORKERS"}
    env["PYTHONPATH"] = str(root / "src")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, preexec_fn=_limit_child,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        error = None
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        error = f"killed after {timeout:.0f} s timeout"
    wall = time.perf_counter() - t0
    res = Result(cmd, proc.returncode, wall, out, error=error)
    tail = err.decode(errors="replace").rpartition(REPORT_MARK)
    if tail[1] and error is None:
        report = json.loads(tail[2])
        res.setup = report["ready"] - t0
        res.rss_mb = report["maxrss_kb"] / 1024.0
        res.trace = report.get("trace")
    elif error is None:
        res.error = f"crashed (exit {proc.returncode}): {err.decode(errors='replace')[-300:]!r}"
    return res


@dataclass
class Pass:
    results: list[Result]
    wall: float

    @property
    def compute_s(self) -> float:
        """Wall time of the pass minus the set-up of its launches."""
        return self.wall - sum(r.setup or 0.0 for r in self.results)


def run_pass(root: Path, cmds: list[Command], trace: bool, deadline: float) -> Pass:
    t0 = time.perf_counter()
    results = [run_command(root, c, trace, deadline) for c in cmds]
    return Pass(results, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Output checks


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def validate(results: list[Result], digests: dict, seed: int,
             reference: Optional[dict[str, bytes]] = None) -> None:
    """Set `error` on every result whose command failed: wrong exit code,
    failed JSON check, stdout digest mismatch (seed-independent commands at
    any seed, seeded ones at DEFAULT_SEED), differing from its `same_as`
    twin, or from `reference` (the untraced stdout of a traced command)."""
    by_label = {r.cmd.label: r for r in results}
    for r in results:
        if r.error:
            continue
        cmd = r.cmd
        if r.rc != 0:
            r.error = f"exit code {r.rc}"
        elif cmd.check is not None and not _json_check(cmd.check, r.stdout):
            r.error = "output check failed"
        elif (not cmd.seeded or seed == DEFAULT_SEED) and digests.get(cmd.label) != sha256(r.stdout):
            r.error = "stdout digest differs from the recorded one"
        elif cmd.same_as and r.stdout != by_label[cmd.same_as].stdout:
            r.error = f"stdout differs from {cmd.same_as}"
        elif reference is not None and r.stdout != reference[cmd.label]:
            r.error = "traced stdout differs from untraced stdout"


def _json_check(check: Callable[[dict], bool], stdout: bytes) -> bool:
    try:
        return bool(check(json.loads(stdout)))
    except (ValueError, KeyError, TypeError):
        return False


# ---------------------------------------------------------------------------
# Statistics and metrics


def tail(values: list[float]) -> Optional[tuple[float, float]]:
    """(p, value) for the highest p in TAIL_PERCENTILES that has at least ten
    samples beyond its nearest-rank value; None with fewer than 20 samples."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(round(p * n / 100.0, 9))
        if rank >= 1 and n - rank >= 10:
            return p, xs[rank - 1]
    return None


def pass_metrics(passes: list[Pass], probes: list[Result]) -> dict[str, list[float]]:
    """Samples per metric: setup_s per launch (probes included), the others
    per pass."""
    samples: dict[str, list[float]] = {
        "setup_s": [r.setup for r in probes if r.setup is not None], "pass_s": [], "peak_rss_mb": []}
    for p in passes:
        samples["setup_s"] += [r.setup for r in p.results if r.setup is not None]
        samples["pass_s"].append(p.compute_s)
        rss = [r.rss_mb for r in p.results if r.rss_mb is not None]
        if rss:
            samples["peak_rss_mb"].append(max(rss))
        for rate in RATES:
            group = [r for r in p.results if r.cmd.rate == rate]
            if group:
                busy = sum(r.wall - (r.setup or 0.0) for r in group)
                samples.setdefault(rate, []).append(sum(r.cmd.units for r in group) / busy)
    return samples


def _print_samples(samples: dict[str, list[float]]) -> None:
    print(f"{'metric':30s} {'median':>12s} {'tail':>18s} {'n':>5s}  unit")
    for name, xs in samples.items():
        if not xs:
            continue
        t = tail(xs) if UNITS[name] == "s" else None
        tail_txt = f"p{t[0]:g} {t[1]:.6g}" if t else "-"
        print(f"{name:30s} {statistics.median(xs):12.6g} {tail_txt:>18s} {len(xs):5d}  {UNITS[name]}")


def _failures(results: list[Result]) -> int:
    bad = [r for r in results if r.error]
    for r in bad:
        print(f"FAILED {r.cmd.label}: {r.error}")
    return len(bad)


def _emit(results: list[Result], metrics: dict[str, tuple[float, str]]) -> int:
    failed = _failures(results)
    print(f"{'fail_frac':30s} {failed / len(results):12.6g}  ({failed} of {len(results)} launches)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_timed(root: Path, workload: str, seed: int, seconds: float) -> int:
    """Repeat a set-up probe and the workload's pass while another round of
    the longest length so far still fits in `seconds`.

    setup_s is the median over launches.  pass_s is the mean over passes,
    that is the run's compute time per pass: the host's speed drifts in
    spells of seconds to tens of seconds, so the few passes of a run are
    often split between a fast and a slow spell, and their median jumps
    between the two where their mean does not."""
    cmds = WORKLOADS[workload](seed)
    digests = load_digests()[workload]
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    probes: list[Result] = []
    passes: list[Pass] = []
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        probes.append(run_command(root, SETUP_PROBE, False, deadline))
        passes.append(run_pass(root, cmds, False, deadline))
        validate(probes[-1:], PROBE_DIGEST, seed)
        validate(passes[-1].results, digests, seed)
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - start + longest > seconds or now > deadline:
            break
    results = probes + [r for p in passes for r in p.results]
    print(f"workload {workload}  seed {seed}  passes {len(passes)}  launches {len(results)}")
    samples = pass_metrics(passes, probes)
    _print_samples(samples)
    pass_s = statistics.fmean(samples["pass_s"])
    print("pass_s per pass: " + " ".join(f"{x:.4f}" for x in samples["pass_s"])
          + f"  mean {pass_s:.6g} s (the reported value)")
    metrics = {"pass_s": (pass_s, "s")}
    if samples["setup_s"]:  # empty only when every launch crashed
        metrics["setup_s"] = (statistics.median(samples["setup_s"]), "s")
    return _emit(results, metrics)


# ---------------------------------------------------------------------------
# Traced pass

# (metric, unit, better); each entry is read off a span summary by layer_metrics.
CALLS = ["qlinalg.span", "qlinalg.coset_key", "qlinalg.contains", "qlinalg.contains_subspace",
         "flags.level_universe", "entropy.check_entropy_condition", "entropy.e_value",
         "entropy.coset_entropy", "rho.f_cell_direct", "rho.extend_a_row",
         "simlab.has_k_equal_sums", "simlab.irreducible_count", "simlab.factorize"]
SELF_S = ["qlinalg.span", "qlinalg.coset_key", "qlinalg.cube_points", "flags.cells_at_level",
          "flags.cell_tree", "entropy.check_entropy_condition", "entropy.coset_entropy",
          "rho.solve_flag_rhos", "rho.solve_rho_chain", "rho.rho_limit",
          "optmeas.optimal_measure", "optmeas.entropy_matrix", "optmeas.certify_system",
          "simlab.substream", "simlab.sample_log_set", "simlab.has_k_equal_sums",
          "simlab.max_subset_sum_multiplicity", "simlab.irreducible_count",
          "simlab.factorize", "simlab.delta_perm", "cli.main"]
SIZES = {"flags.cells_at_level.cells": "flags.cells_at_level",
         "flags.level_universe.spaces": "flags.level_universe",
         "flags.enumerate_subflags.subflags": "flags.enumerate_subflags"}
TAGS = {"simlab.max_subset_sum_multiplicity.calls.exact": ("simlab.max_subset_sum_multiplicity", "exact"),
        "simlab.max_subset_sum_multiplicity.calls.randomized": ("simlab.max_subset_sum_multiplicity", "randomized"),
        "simlab.trials.exact": ("simlab.equal_sums_trial", "exact"),
        "simlab.trials.randomized": ("simlab.equal_sums_trial", "randomized")}
PER_LAYER = (
    [(f"{f}.calls", "count", "lower") for f in CALLS]
    + [(f"{f}.self_s", "s", "lower") for f in SELF_S]
    + [(m, "count", "lower") for m in SIZES]
    + [(m, "count", "higher" if m.endswith("exact") else "lower") for m in TAGS]
    + [("flags.level_universe.useful_ratio", "ratio", "higher"),
       ("simlab.trials.randomized_share", "ratio", "lower"),
       ("simlab.run_indexed.wait_s", "s", "lower"),
       ("cli.stdout_bytes", "bytes", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


def merge_summaries(summaries: list[dict]) -> dict:
    """Sum per-command span summaries (tracer.summarize) into one."""
    out = {"functions": {}, "span_in_universe": 0, "pool_wait_s": 0.0}
    for s in summaries:
        out["span_in_universe"] += s["span_in_universe"]
        out["pool_wait_s"] += s["pool_wait_s"]
        for name, f in s["functions"].items():
            g = out["functions"].setdefault(name, {"calls": 0, "self_s": 0.0, "sizes": [], "tags": {}})
            g["calls"] += f["calls"]
            g["self_s"] += f["self_s"]
            g["sizes"] += f["sizes"]
            for tag, n in f["tags"].items():
                g["tags"][tag] = g["tags"].get(tag, 0) + n
    return out


def layer_metrics(summary: dict, stdout_bytes: int, overhead_s: float) -> dict[str, float]:
    funcs = summary["functions"]

    def get(name: str, key: str):
        return funcs.get(name, {}).get(key, 0)

    m: dict[str, float] = {}
    for f in CALLS:
        m[f"{f}.calls"] = get(f, "calls")
    for f in SELF_S:
        m[f"{f}.self_s"] = get(f, "self_s")
    for metric, f in SIZES.items():
        m[metric] = sum(get(f, "sizes") or [])
    for metric, (f, tag) in TAGS.items():
        m[metric] = (get(f, "tags") or {}).get(tag, 0)
    spans = summary["span_in_universe"]
    m["flags.level_universe.useful_ratio"] = m["flags.level_universe.spaces"] / spans if spans else 0.0
    trials = m["simlab.trials.exact"] + m["simlab.trials.randomized"]
    m["simlab.trials.randomized_share"] = m["simlab.trials.randomized"] / trials if trials else 0.0
    m["simlab.run_indexed.wait_s"] = summary["pool_wait_s"]
    m["cli.stdout_bytes"] = stdout_bytes
    m["trace.overhead_s"] = overhead_s
    return m


def run_traced(root: Path, seed: int) -> int:
    """One untraced and one traced pass of every workload."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    digests = load_digests()
    results: list[Result] = []
    columns: dict[str, dict[str, float]] = {}
    summaries, total_bytes, total_overhead = [], 0, 0.0
    for workload, make in WORKLOADS.items():
        cmds = make(seed)
        plain = run_pass(root, cmds, False, deadline)
        traced = run_pass(root, cmds, True, deadline)
        validate(plain.results, digests[workload], seed)
        validate(traced.results, digests[workload], seed,
                 reference={r.cmd.label: r.stdout for r in plain.results})
        results += plain.results + traced.results
        summary = merge_summaries([r.trace for r in traced.results if r.trace])
        nbytes = sum(len(r.stdout) for r in traced.results)
        overhead = traced.compute_s - plain.compute_s
        columns[workload] = layer_metrics(summary, nbytes, overhead)
        summaries.append(summary)
        total_bytes += nbytes
        total_overhead += overhead
        print(f"{workload}: pass_s untraced {plain.compute_s:.4f} traced {traced.compute_s:.4f}")
        cells = summary["functions"].get("flags.cells_at_level", {}).get("sizes")
        if cells:
            print(f"{workload}: cells_at_level cells per call {cells}")
    total = layer_metrics(merge_summaries(summaries), total_bytes, total_overhead)
    print(f"{'per-layer metric':52s}" + "".join(f"{w:>16s}" for w in columns) + f"{'total':>16s}")
    for name, _, _ in PER_LAYER:
        print(f"{name:52s}" + "".join(f"{c[name]:16.6g}" for c in columns.values())
              + f"{total[name]:16.6g}")
    return _emit(results, {n: (total[n], u) for n, u, _ in PER_LAYER})


# ---------------------------------------------------------------------------


def record_digests(root: Path) -> int:
    """Write the sha256 of every command's stdout at DEFAULT_SEED."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    out = {}
    for workload, make in WORKLOADS.items():
        p = run_pass(root, make(DEFAULT_SEED), False, deadline)
        bad = [r.cmd.label for r in p.results if r.error or r.rc != 0]
        if bad:
            print(f"not recorded: {workload} commands failed: {bad}", file=sys.stderr)
            return 1
        out[workload] = {r.cmd.label: sha256(r.stdout) for r in p.results}
    with open(DIGESTS, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description="cubeflags benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="record stdout digests at the default seed and exit")
    args = ap.parse_args(argv)
    root = ROOT
    if not (root / "src" / "cubeflags" / "cli.py").is_file():
        print(f"no cubeflags sources under {root / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests(root)
    if args.workload is None:
        ap.error("--workload is required")
    if args.trace:
        return run_traced(root, args.seed)
    return run_timed(root, args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
