"""Shared test helpers."""

import os
import re
import resource
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

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
