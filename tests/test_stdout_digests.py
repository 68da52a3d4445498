"""Pin CLI stdout bytes to the sha256 digests the benchmark recorded.

Each command is one of the benchmark's (perfbench/run.py), run in-process
through cli.main, and its digest is read from perfbench/digests.json: every
seed-independent command, plus two seeded Monte Carlo commands at the seed
the digests were recorded with.
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
    ("monte-carlo", "sums-small-c0.3-w2"): (
        "--workers", "2", "simulate", "equal-sums", "--D", "1e6", "--c", "0.3", "--k", "2",
        "--trials", "2000", "--seed", SEED, "--json"),
}


@pytest.mark.parametrize("key", COMMANDS, ids=[label for _, label in COMMANDS])
def test_stdout_matches_recorded_digest(key, capsys):
    assert main(list(COMMANDS[key])) == 0
    out = capsys.readouterr().out.encode()
    workload, label = key
    assert hashlib.sha256(out).hexdigest() == DIGESTS[workload][label]
