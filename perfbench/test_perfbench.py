"""Tests of the benchmark's own logic: statistics, span self times, output
checks, namespace patching and the guards on child commands.

    python3 -m pytest perfbench -q
"""

import importlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Span  # noqa: E402


# ---------------------------------------------------------------------------
# Tail percentile


def test_tail_picks_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(1, 20))) is None
    assert run.tail(list(range(1, 21))) == (50.0, 10)
    assert run.tail(list(range(1, 40))) == (50.0, 20)
    assert run.tail(list(range(1, 41))) == (75.0, 30)
    assert run.tail(list(range(100, 0, -1))) == (90.0, 90)
    assert run.tail(list(range(1, 1001))) == (99.0, 990)
    assert run.tail(list(range(1, 10001))) == (99.9, 9990)


def test_report_gives_tail_and_sample_count(capsys):
    run._print_samples({"setup_s": [float(x) for x in range(1, 101)], "pass_s": [2.0, 4.0]})
    lines = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()}
    assert lines["setup_s"][1:] == ["50.5", "p90", "90", "100", "s"]
    assert lines["pass_s"][1:] == ["3", "-", "2", "s"]


# ---------------------------------------------------------------------------
# Self time


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(1, 0, "root", 0.0, 10.0, None),
        Span(2, 1, "a", 1.0, 4.0, None),
        Span(3, 1, "b", 3.0, 6.0, None),  # overlaps a: union with a is [1, 6]
        Span(4, 2, "c", 2.0, 3.0, None),  # grandchild: counts against a only
        Span(5, 1, "d", 9.0, 12.0, None),  # clipped to the parent's end
    ]
    st = tracer.self_times(spans)
    assert st == {1: 10.0 - 5.0 - 1.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0}


def test_tracer_links_nested_calls_and_summarizes():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return [1, 2, 3]

    def outer():
        tr.call("qlinalg.span", inner, (), {})
        return tr.call("flags.cells_at_level", inner, (), {}, lambda a, kw, r: len(r))

    tr.call("flags.level_universe", outer, (), {})
    by_name = {s.name: s for s in tr.spans}
    root = by_name["flags.level_universe"]
    assert root.parent == 0
    assert by_name["qlinalg.span"].parent == root.id
    assert by_name["flags.cells_at_level"].parent == root.id
    summary = tracer.summarize(tr.spans)
    funcs = summary["functions"]
    # clock ticks: outer 0..5, span 1..2, cells_at_level 3..4
    assert funcs["flags.level_universe"]["self_s"] == 5.0 - 1.0 - 1.0
    assert funcs["flags.cells_at_level"]["sizes"] == [3]
    assert summary["span_in_universe"] == 1


# ---------------------------------------------------------------------------
# Output checks


def _result(cmd, stdout, rc=0):
    return run.Result(cmd, rc, 1.0, stdout, setup=0.1, rss_mb=30.0)


def test_digest_mismatch_counts_as_failure(capsys):
    cmd = run.Command("theta-8", ("theta", "--r", "8"))
    good = _result(cmd, b"0.5\n")
    bad = _result(cmd, b"0.6\n")
    digests = {"theta-8": run.sha256(b"0.5\n")}
    run.validate([good], digests, seed=1)
    run.validate([bad], digests, seed=1)
    assert good.error is None
    assert "digest" in bad.error
    assert run._emit([good, bad], {}) == 1
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (doc["correct"], doc["attempted"], doc["failed"]) == (False, 2, 1)


def test_seeded_digest_applies_only_at_default_seed():
    cmd = run.Command("delta-int", ("simulate",), seeded=True)
    digests = {"delta-int": run.sha256(b"recorded\n")}
    other = _result(cmd, b"other seed\n")
    run.validate([other], digests, seed=run.DEFAULT_SEED + 1)
    assert other.error is None
    run.validate([other], digests, seed=run.DEFAULT_SEED)
    assert "digest" in other.error


def test_failed_checks_exit_codes_and_worker_twins():
    ok_doc = json.dumps({"ok": True}).encode()
    cert = run.Command("c", ("check",), check=run._cert())
    w1 = run.Command("s-w1", ("simulate",), seeded=True)
    w2 = run.Command("s-w2", ("simulate",), seeded=True, same_as="s-w1")
    results = [
        _result(cert, json.dumps({"ok": False}).encode()),
        _result(cert, b"not json"),
        _result(cert, ok_doc, rc=3),
        _result(w1, b"a\n"),
        _result(w2, b"b\n"),
    ]
    run.validate(results, {"c": run.sha256(ok_doc)}, seed=7)
    assert [r.error is not None for r in results] == [True, True, True, False, True]
    assert "s-w1" in results[4].error


# ---------------------------------------------------------------------------
# Namespace patching


def test_install_patches_every_namespace_and_uninstall_restores():
    cubeflags = importlib.import_module("cubeflags")
    for name in ("cli", "entropy", "flags", "optmeas", "qlinalg", "rho", "simlab"):
        importlib.import_module(f"cubeflags.{name}")
    originals = {key: fn for key, (_, fn) in tracer.public_functions().items()}
    assert "qlinalg.span" in {n for n, _ in tracer.public_functions().values()}
    flags = sys.modules["cubeflags.flags"]
    qlinalg = sys.modules["cubeflags.qlinalg"]
    flag = flags.binary_flag(1)
    tr = tracer.Tracer()
    patches = tracer.install(tr)
    try:
        for mod in tracer._modules():
            for attr, obj in vars(mod).items():
                assert id(obj) not in originals, f"{mod.__name__}.{attr} escapes the trace"
        assert flags.span is qlinalg.span is cubeflags.span
        assert id(flags.span.__wrapped__) in originals
        universe = flags.level_universe(flag.spaces[1], 10**6, 1)
        summary = tracer.summarize(tr.spans)
        assert summary["functions"]["flags.level_universe"]["sizes"] == [len(universe)]
        assert summary["span_in_universe"] == summary["functions"]["qlinalg.span"]["calls"] > 0
        subflags = list(flags.enumerate_subflags(flag))
        assert tracer.summarize(tr.spans)["functions"]["flags.enumerate_subflags"]["sizes"] == [
            len(subflags)]
    finally:
        tracer.uninstall(patches)
    for mod, attr, original in patches:
        assert getattr(mod, attr) is original


# ---------------------------------------------------------------------------
# Guards on child commands


LARGE = run.WORKLOADS["large-cube-cert"](run.DEFAULT_SEED)[0]


def test_runaway_command_is_killed_and_fails(monkeypatch):
    monkeypatch.setattr(run, "CMD_TIMEOUT_S", 0.5)
    t0 = time.perf_counter()
    res = run.run_command(run.ROOT, LARGE, False, time.perf_counter() + 30)
    assert time.perf_counter() - t0 < 10
    assert res.error and "timeout" in res.error
    run.validate([res], {}, seed=1)
    assert "timeout" in res.error


def test_address_space_limit_applies_to_child_only(monkeypatch):
    monkeypatch.setattr(run, "ADDRESS_SPACE_BYTES", 64 << 20)
    res = run.run_command(run.ROOT, run.Command("eta", ("eta",)), False,
                          time.perf_counter() + 30)
    assert res.error and "crashed" in res.error
    assert bytearray(128 << 20)  # this process is not limited


def test_no_command_starts_after_the_deadline():
    res = run.run_command(run.ROOT, LARGE, False, time.perf_counter() - 1)
    assert res.error and "deadline" in res.error


def test_benchmark_json_matches_the_harness():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER]
    assert bench["run_seconds"] == run.RUN_SECONDS
