"""Shared test helpers."""

import os
import re
import resource
import subprocess
import sys
from math import lcm
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import pytest

from cubeflags import rho
from cubeflags.errors import CapacityError, EnumerationLimitError, NumericInstabilityError
from cubeflags.qlinalg import Subspace, contains, cube_points, ones, span

SRC = str(Path(__file__).resolve().parents[1] / "src")


class Child(NamedTuple):
    code: int
    stdout: str
    stderr: str
    peak_rss: Optional[int]  # bytes: the child's own maximum resident set, if it reached exit


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_fresh(source: str, *argv: str, limit_memory: bool = False, timeout: float = 120) -> Child:
    """Run the Python `source` in a fresh interpreter, with src/ first on its
    path and argv as its arguments; with limit_memory, under a 1 GiB
    address-space limit.

    The peak RSS is the VmHWM the child reports at exit, through a pipe of its
    own.  Its rusage would not do: exec keeps the high-water mark of the
    memory it replaces, so a child of this process counts the test process's
    RSS too.
    """
    read_end, write_end = os.pipe()
    prelude = (f"import atexit, os, sys; sys.path.insert(0, {SRC!r})\n"
               f"atexit.register(lambda: os.write({write_end}, open('/proc/self/status', 'rb').read()))\n")
    try:
        proc = subprocess.run([sys.executable, "-c", prelude + source, *argv], capture_output=True, text=True,
                              timeout=timeout, pass_fds=(write_end,),
                              preexec_fn=_limit_address_space if limit_memory else None)
    finally:
        os.close(write_end)
    with open(read_end, "rb") as fh:
        peak = re.search(rb"VmHWM:\s*(\d+) kB", fh.read())
    return Child(proc.returncode, proc.stdout, proc.stderr, int(peak[1]) << 10 if peak else None)


@pytest.fixture
def fresh():
    """run_fresh, for tests that need a fresh interpreter."""
    return run_fresh


def reference_bisect(phi, a: float, b: float, width: float, what: str) -> float:
    """Plain bisection, every midpoint evaluated: rho._bisect as it was
    before it bracketed the root first, kept verbatim as its reference.

    Stops once the bracket is at most width wide or float resolution is
    exhausted, and returns its midpoint; an exact zero of phi (endpoints
    included) is returned as is.  When phi(a) and phi(b) have one sign, or
    are both zero, it raises NumericInstabilityError naming the equation.
    """
    fa, fb = phi(a), phi(b)
    if (fa > 0) - (fa < 0) == (fb > 0) - (fb < 0):
        raise NumericInstabilityError(
            f"no root in ({a:g},{b:g}) for {what}: phi({a:g})={fa}, phi({b:g})={fb}"
        )
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    neg = fa < 0
    while b - a > width:
        m = 0.5 * (a + b)
        if m == a or m == b:  # float resolution exhausted
            break
        fm = phi(m)
        if fm == 0.0:
            return m
        if (fm < 0) == neg:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def bisect_outcome(bisect, *args):
    """bisect(phi, a, b, width, what), or the text of the error it raises."""
    try:
        return bisect(*args)
    except NumericInstabilityError as exc:
        return str(exc)


@pytest.fixture
def bisect_pairs(monkeypatch):
    """Every rho._bisect call also runs reference_bisect on the same
    equation; the list gathers (what, rho._bisect's outcome, the reference's)."""
    fast, pairs = rho._bisect, []

    def both(*args):
        got = bisect_outcome(fast, *args)
        pairs.append((args[-1], got, bisect_outcome(reference_bisect, *args)))
        return fast(*args) if isinstance(got, str) else got  # raise as fast did

    monkeypatch.setattr(rho, "_bisect", both)
    return pairs


def reference_level_universe(W, cap: int, level: int) -> tuple:
    """flags.level_universe as it was before it closed by residue classes,
    kept verbatim (uncached) as its reference: one `contains` per (frontier
    space, cube point) pair and one `span` per point outside the space.

    All distinct spans of <1> plus a subset of W /\\ {0,1}^k, sorted.

    Grown by closure: repeatedly extend known spaces by cube points they do
    not already contain.  The number of distinct spans is usually far below
    2^{#points}; the cap guards pathological growth.
    """
    k = W.ambient_dim
    pts = cube_points(W)
    base = span([ones(k)])
    seen = {base}
    frontier = [base]
    while frontier:
        nxt = []
        for U in frontier:
            for p in pts:
                if not contains(U, p):
                    U2 = span(list(U.basis) + [p], k)
                    if U2 not in seen:
                        seen.add(U2)
                        if len(seen) > cap:
                            raise EnumerationLimitError(level, len(seen), cap)
                        nxt.append(U2)
        frontier = nxt
    return tuple(sorted(seen, key=lambda U: (U.dim, U.basis)))


def reference_coset_keys(W: Subspace, rows: np.ndarray) -> np.ndarray:
    """flags._coset_keys as it was before it read the scaled basis, with the
    qlinalg.coset_matrix it called, kept verbatim as its reference.

    M is the integer k x k matrix with M v == L * reduce(v) for every v in
    Q^k: reduce(v) is the coset representative of coset_key (v with zeros at
    W's pivot coordinates) and L the lcm of the basis rows' leading entries.
    Because the basis rows are mutually reduced, reduce(v) is v minus
    (v_p / lead) * row for each row with pivot p, which is linear in v; so
    u and v lie in the same W-coset iff M u == M v.  The rows of M at the
    pivot coordinates are zero.  The keys are rows @ M^T, and a W with
    k * max|M| >= 2^62 is refused.
    """
    k = W.ambient_dim
    leads = [row[p] for row, p in zip(W.basis, W.pivots)]
    lead_lcm = lcm(*leads)
    mat = [[0] * c + [lead_lcm] + [0] * (k - 1 - c) for c in range(k)]
    for row, p, lead in zip(W.basis, W.pivots, leads):
        scale = lead_lcm // lead
        for c, x in enumerate(row):
            if x:
                mat[c][p] -= scale * x
    # |(M p)_c| <= k * max|M| for a 0/1 point p, and int64 must hold it exactly
    if k * max(max(map(max, mat)), -min(map(min, mat))) >= 1 << 62:
        raise CapacityError("coset key guard: keys overflow int64")
    return rows @ np.array(mat, dtype=np.int64).T
