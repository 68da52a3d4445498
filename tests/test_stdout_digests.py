"""Pin CLI stdout bytes to the sha256 digests the benchmark recorded.

Each command is one of the benchmark's (perfbench/run.py), run in-process
through cli.main, and its digest is read from perfbench/digests.json: every
seed-independent command, plus the seeded Monte Carlo commands that cover
each sampler and census path, at the seed the digests were recorded with.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cubeflags.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = json.loads((ROOT / "perfbench" / "digests.json").read_text())
SEED = "20260810"  # perfbench/run.py DEFAULT_SEED


def _check(*args):
    return ("--workers", "1", "check", *args)


def _sums(workers, D, c, trials):
    return ("--workers", workers, "simulate", "equal-sums", "--D", D, "--c", c, "--k", "2",
            "--trials", trials, "--seed", SEED, "--json")


COMMANDS = {
    ("paper-certs", "check-binary-1"): _check("--flag", "binary", "--order", "1"),
    ("paper-certs", "check-binary-2"): _check("--flag", "binary", "--order", "2"),
    ("paper-certs", "check-mt-2"): _check("--flag", "mt", "--order", "2"),
    ("paper-certs", "check-mt-3"): _check("--flag", "mt", "--order", "3"),
    ("paper-certs", "rho-table"): ("--workers", "1", "rho-table", "--max-j", "13"),
    ("paper-certs", "constants"): ("--workers", "1", "constants"),
    ("paper-certs", "theta-8"): ("--workers", "1", "theta", "--r", "8"),
    ("large-cube-cert", "check-mt4-q12"): _check(
        "--flag", "file", "--file", str(ROOT / "perfbench" / "mt4_q12.flag")),
    ("monte-carlo", "delta-poly"): (
        "--workers", "1", "simulate", "delta-poly", "--q", "2", "--n", "2000", "--model", "nb",
        "--dmin", "2", "--dmax", "750", "--samples", "50", "--seed", SEED, "--json"),
    ("monte-carlo", "sums-small-c0.3-w2"): _sums("2", "1e6", "0.3", "2000"),
    ("monte-carlo", "sums-small-c0.02-w1"): _sums("1", "1e6", "0.02", "2000"),
    ("monte-carlo", "sums-small-c0.15-w1"): _sums("1", "1e6", "0.15", "2000"),
    # 13 of its sets are larger than the exact census: each is decided by its
    # smallest 26 elements
    ("monte-carlo", "sums-large"): _sums("1", "1e8", "0.02", "500"),
    ("monte-carlo", "delta-int"): (
        "--workers", "1", "simulate", "delta-int", "--X", "1125899906842624", "--samples", "1000",
        "--seed", SEED, "--json"),
    ("monte-carlo", "delta-perm"): (
        "--workers", "1", "simulate", "delta-perm", "--n", "400", "--samples", "500",
        "--seed", SEED, "--json"),
}


@pytest.mark.parametrize("key", COMMANDS, ids=[label for _, label in COMMANDS])
def test_stdout_matches_recorded_digest(key, capsys):
    assert main(list(COMMANDS[key])) == 0
    out = capsys.readouterr().out.encode()
    workload, label = key
    assert hashlib.sha256(out).hexdigest() == DIGESTS[workload][label]
