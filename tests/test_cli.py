import argparse
import ast
import collections
import hashlib
import json
import math
import re
import shlex
import time
from pathlib import Path

import pytest

from cubeflags import flags as flags_mod
from cubeflags import simlab
from cubeflags.cli import UsageError, build_parser, main
from cubeflags.errors import EnumerationLimitError
from cubeflags.flags import parse_flag_text

TABLE = [
    "0.3064810093305",
    "0.2796104150767",
    "0.2813005404710",
    "0.2812067224539",
    "0.2812115789381",
    "0.2812113387071",
    "0.2812113502101",
    "0.2812113496729",
    "0.2812113496974",
    "0.2812113496963",
    "0.2812113496964",
    "0.2812113496964",
    "0.2812113496964",
]


CLI_MAIN = "from cubeflags.cli import main\nsys.exit(main(sys.argv[1:]))"  # run with fresh()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rho_table_matches_reference(capsys):
    code, out, _ = run(capsys, "rho-table", "--max-j", "13")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j,rho_j,residual"
    assert len(lines) == 14
    for line, ref in zip(lines[1:], TABLE):
        j, rho_j, _res = line.split(",")
        assert abs(float(rho_j) - float(ref)) < 5e-13


def test_rho_table_table_format(capsys):
    code, out, _ = run(capsys, "rho-table", "--max-j", "3", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["j", "rho_j", "residual"]
    assert len(lines) == 4


def test_rho_table_json_schema(capsys):
    code, out, _ = run(capsys, "rho-table", "--max-j", "2", "--format", "json")
    doc = json.loads(out)
    assert doc["schema"].startswith("cubeflags.rhotable")
    assert len(doc["rows"]) == 2


def test_eta_output(capsys):
    code, out, _ = run(capsys, "eta")
    assert code == 0
    assert abs(float(out.strip()) - 0.35332277270132347) < 1e-12


def test_theta_output(capsys):
    code, out, _ = run(capsys, "theta", "--r", "1")
    assert code == 0
    assert abs(float(out.strip()) - (1 - 1 / math.log(3))) < 1e-12
    assert out == "0.08976077337316268\n"


@pytest.mark.parametrize("r", ["0", "-3"])
def test_theta_below_one_is_usage_error(capsys, r):
    code, out, err = run(capsys, "theta", "--r", r)
    assert (code, out) == (1, "")
    assert err.startswith("usage error:") and "r >= 1" in err


@pytest.mark.parametrize("r", ["500", "1000"])
def test_theta_past_double_range_is_numeric_error(capsys, r):
    # the running product of the rhos leaves double range: an internal
    # numeric bound (exit 2), not a usage error, a traceback or a printed 0
    code, out, err = run(capsys, "theta", "--r", r)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "overflows" in err


def test_theta_cost_does_not_grow_with_r(fresh):
    # the increments 2^i and the padded rhos are consumed lazily, so r = 10^6
    # fails at i = 362 inside 1 GiB, as r = 363 does
    child = fresh(CLI_MAIN, "theta", "--r", str(10**6), limit_memory=True, timeout=60)
    assert (child.code, child.stdout) == (2, "")
    assert child.stderr == "error: the gamma denominator overflows at i = 362\n"


def test_theta_json_padding_metadata(capsys):
    code, out, _ = run(capsys, "theta", "--r", "18", "--json")
    doc = json.loads(out)
    assert doc["padded_with_limit"] is True
    assert doc["chain_solved_to"] == 13


def test_rho_limit(capsys):
    code, out, _ = run(capsys, "rho-limit")
    assert code == 0
    assert abs(float(out.strip()) - 0.28121134969637466) < 1e-12


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-15"])
def test_rho_limit_bad_tolerance_is_usage_error(capsys, tol):
    # a nan tolerance used to skip the bisection and print the bracket midpoint
    code, out, err = run(capsys, "rho-limit", f"--tol={tol}")
    assert (code, out) == (1, "")
    assert err.startswith("usage error:") and "tolerance" in err


def test_rho_limit_zero_tolerance_bisects_to_float_resolution(capsys):
    code, out, _ = run(capsys, "rho-limit", "--tol", "0")
    assert code == 0
    assert abs(float(out.strip()) - 0.28121134969637466) < 1e-15


def test_rho_table_past_float_range_fails_fast(capsys):
    # one past the guard used to die in an OverflowError after ~15 s
    from cubeflags.rho import MAX_RHO_CHAIN_J

    start = time.perf_counter()
    code, out, err = run(capsys, "rho-table", "--max-j", str(MAX_RHO_CHAIN_J + 1))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: rho chain guard")


def test_rho_table_negative_max_j_is_usage_error(capsys):
    assert run(capsys, "rho-table", "--max-j", "-1")[:2] == (1, "")
    code, out, _ = run(capsys, "rho-table", "--max-j", "0")
    assert (code, out) == (0, "j,rho_j,residual\n")


@pytest.mark.parametrize("argv, digest", [
    (("rho-table", "--max-j", "0"),
     "70ce422e7829f7af2f746eb6778354c2a9211de509c9cbd95957ed0d62c3c937"),
    (("rho-limit", "--json"),
     "c0409906f3e2be5c26881f767519677d56287ad588f43bee8986591b248b801b"),
    (("rho-limit", "--tol", "0", "--json"),
     "c0409906f3e2be5c26881f767519677d56287ad588f43bee8986591b248b801b"),
    (("eta",), "9e3e3b3a2bd079609e084a8132bac816bdaf6c837cc2262956d1db9d5659bc69"),
    (("theta", "--r", "362", "--json"),
     "78b8f811a6c8bc71efa020299644ad4b862b0a14304dc7170b42a1cea462886d"),
    (("theta", "--r", "40", "--json"),
     "a8038e21a2f6a365e61a2d3b486ad0daa1226f656a3b888df4f3bc04de5b37df"),
], ids=["rho-table-0", "rho-limit", "rho-limit-tol0", "eta", "theta-362", "theta-40"])
def test_rho_command_bytes_pinned(capsys, argv, digest):
    # rho-table --max-j 1021 is pinned in test_rho, next to its rows oracle
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_constants_json(capsys):
    code, out, _ = run(capsys, "constants")
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["beta3"] - 0.02616218797316965) < 1e-14
    assert abs(doc["beta4"] - 0.01295186091360512) < 1e-14
    assert doc["schema"].startswith("cubeflags.constants")


def test_check_binary_order1(capsys):
    code, out, _ = run(capsys, "check", "--flag", "binary", "--order", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert abs(doc["basic_slacks"]["0"]) <= 1e-9
    assert abs(doc["c_star"][1] - (1 - 1 / math.log(3))) < 1e-12
    assert "universe" in doc


def test_check_certificate_failure_exit_code(capsys, tmp_path):
    # a one-step chain in Q^3 whose single coset entropy log 7 < dim gap 2:
    # the threshold back-substitution degenerates and the certificate fails
    flag_file = tmp_path / "flat.flag"
    flag_file.write_text("100 010\n")
    code, out, _ = run(capsys, "check", "--flag", "file", "--file", str(flag_file))
    assert code == 3
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["failures"]


def test_check_byte_identical_across_workers(capsys):
    outs = []
    for workers in ("1", "4"):
        code, out, _ = run(capsys, "--workers", workers, "check", "--flag", "mt", "--order", "2")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "check", "--flag", "nope")
    assert code == 1
    assert "usage error" in err


def test_missing_file_usage_error(capsys):
    code, _, err = run(capsys, "check", "--flag", "file")
    assert code == 1


@pytest.mark.parametrize("command", ["check", "measures", "tree"])
@pytest.mark.parametrize("flag", [("binary", "--order", "0"), ("mt", "--order", "-3"), ("file",)],
                         ids=["binary-0", "mt-minus-3", "mixed-lengths-file"])
def test_bad_flag_input_is_usage_error(capsys, tmp_path, command, flag):
    if flag == ("file",):
        flag_file = tmp_path / "mixed.flag"
        flag_file.write_text("1100\n1100 10\n")
        flag = ("file", "--file", str(flag_file))
    code, out, err = run(capsys, command, "--flag", *flag)
    assert (code, out) == (1, "")
    assert err.startswith("usage error:")


@pytest.mark.parametrize("kind", ["binary", "mt"])
def test_flag_order_past_cap_is_capacity_error(capsys, kind):
    code, out, err = run(capsys, "tree", "--flag", kind, "--order", "5")
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_capacity_error_exit_code(capsys):
    code, _, err = run(capsys, "check", "--flag", "binary", "--order", "9")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("width", [17, 18])
def test_oversize_flag_file_fails_fast(capsys, tmp_path, width):
    # width - 1 unit vectors span Q^width: the cell guard must stop the parse
    # before the spanning check walks the 2^width cube points of that space
    flag_file = tmp_path / "wide.flag"
    flag_file.write_text(" ".join("0" * i + "1" + "0" * (width - 1 - i) for i in range(width - 1)) + "\n")
    start = time.perf_counter()
    code, _, err = run(capsys, "check", "--flag", "file", "--file", str(flag_file))
    assert time.perf_counter() - start < 2
    assert code == 2
    assert f"ambient dim {width} > 16" in err


def test_sixteen_wide_flag_file_parses():
    # at the guard itself the spanning check still runs (a CLI command would
    # spend its time printing the 2^16-point cell tree)
    flag = parse_flag_text("1111111100000000\n1111111100000000 1111000011110000\n")
    assert flag.ambient_dim == 16
    assert flag.dims() == (1, 2, 3)


def test_measures_output(capsys):
    code, out, _ = run(capsys, "measures", "--flag", "binary", "--order", "2")
    assert code == 0
    doc = json.loads(out)
    assert abs(sum(doc["mu_star"].values()) - 1.0) < 1e-12
    assert doc["mu_star"]["1111"] == 0.0
    assert len(doc["c_star"]) == 3


@pytest.mark.parametrize(
    "flag, digest",
    [
        (("binary", "--order", "1"), "22038e6fb66009e2ded9db6f47257fc7b86460f550bfdccb7c5053858fe8a3cd"),
        (("binary", "--order", "2"), "56a49e54dc50a516dea2117ae5a3fec55201a69a7d6b6e7c7cced39bf286b952"),
        (("binary", "--order", "3"), "b8007bb331ce1dd6733412ab1ca80e12ed0e35a1a45a4fe06f27522f48fbc965"),
        (("mt", "--order", "2"), "d2cd13f2dce5f540a449d18d15bc861ce673b9965f651a6e952d7cc0d638930c"),
        (("mt", "--order", "3"), "eef9b4db2c652de4e3f302783fe47939fa6416a5227fa522960a80119ba947fd"),
        (("mt", "--order", "4"), "e2e9336a3754d7e3e94c9b97bca5423b00a11dfccabf31f7d58a498703d1cf1b"),
        (("file", "--file", str(Path(__file__).resolve().parents[1] / "perfbench" / "mt4_q12.flag")),
         "4bad567e8604c0bf570cd25bb1e14222c230d5e00d4dae25a2fc8f9e3311ec74"),
    ],
    ids=["binary-1", "binary-2", "binary-3", "mt-2", "mt-3", "mt-4", "mt4_q12"],
)
def test_measures_bytes_pinned(capsys, flag, digest):
    code, out, _ = run(capsys, "measures", "--flag", *flag)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_check_mt4_bytes_pinned(capsys):
    code, out, _ = run(capsys, "check", "--flag", "mt", "--order", "4")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4bf4c49a72cb3549aa0257a832c12ea8d8439784212f7f57b91817c828ceb73b")


@pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf"])
def test_check_bad_perturbation_is_usage_error(capsys, eps):
    # these used to run the whole certificate and report a failed check
    code, out, err = run(capsys, "check", "--flag", "binary", "--order", "2", "--perturb", eps)
    assert (code, out) == (1, "")
    assert err.startswith("usage error:") and "epsilons" in err


def test_tree_output(capsys):
    code, out, _ = run(capsys, "tree", "--flag", "binary", "--order", "2")
    assert code == 0
    doc = json.loads(out)
    assert [len(lv["cells"]) for lv in doc["levels"]] == [15, 9, 1]


@pytest.mark.parametrize(
    "flag, order, digest",
    [
        ("mt", "3", "4951e83d7364faa2de9c679aa792faa2334f4c22286fb8e2504933c5502e14c2"),
        ("binary", "2", "978f16d0f9c6b35d4db86126150a89c798530499795b8256ba0cc7d36e33322c"),
    ],
)
def test_tree_bytes_pinned(capsys, flag, order, digest):
    code, out, _ = run(capsys, "tree", "--flag", flag, "--order", order)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_tree_from_file(capsys, tmp_path):
    flag_file = tmp_path / "chain.flag"
    flag_file.write_text("# two-level custom chain\n0011\n0011 0101\n")
    code, out, _ = run(capsys, "tree", "--flag", "file", "--file", str(flag_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "custom"
    assert doc["dims"] == [1, 2, 3]


def test_simulate_equal_sums_summary_and_csv(capsys, tmp_path):
    out_path = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys,
        "simulate", "equal-sums",
        "--D", "100000", "--c", "0.1", "--k", "2",
        "--trials", "40", "--seed", "5", "--json",
        "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 40
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "trial,set_size,k_max,exact"
    assert len(lines) == 41


def test_simulate_equal_sums_byte_identical_across_workers(capsys, tmp_path):
    outputs = []
    for workers in (1, 4, 8):
        out_path = tmp_path / f"rows{workers}.csv"
        code, out, _ = run(
            capsys,
            "--workers", str(workers),
            "simulate", "equal-sums",
            "--D", "100000", "--c", "0.1", "--trials", "30", "--seed", "5",
            "--json", "--out", str(out_path),
        )
        assert code == 0
        outputs.append((out, out_path.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_simulate_equal_sums_out_bytes_pinned(capsys, tmp_path):
    # digests recorded before the census moved to one engine: --out must not
    # change the summary, and the rows must keep their bytes
    out_path = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys, "simulate", "equal-sums", "--D", "1e6", "--c", "0.1",
        "--trials", "500", "--seed", "1", "--json", "--out", str(out_path),
    )
    assert code == 0
    assert _sha256(out.encode()) == (
        "54d300c39a0f182e09baaed3da5d7807b7b8ed9001c820b4eca07ed4fd183df6")
    assert _sha256(out_path.read_bytes()) == (
        "0fea7239d9c9e5a0ecdd8cfc8c9492b74d16a90d82633925ce4375a6414c3364")


@pytest.mark.parametrize("out", [False, True], ids=["summary", "rows"])
def test_simulate_equal_sums_negative_seed_usage_error(capsys, tmp_path, out):
    # SeedSequence's own message: the sampler must reject a negative seed as it does
    out_path = tmp_path / "rows.csv"
    extra = ("--out", str(out_path)) if out else ()
    code, stdout, err = run(
        capsys, "simulate", "equal-sums", "--D", "1e6", "--trials", "5", "--seed", "-1", "--json", *extra,
    )
    assert code == 1
    assert stdout == ""
    assert err == "usage error: expected non-negative integer\n"
    assert not out_path.exists()


def test_simulate_equal_sums_wide_seed_bytes_pinned(capsys, tmp_path):
    # a seed of 2^70 + 3 takes three 32-bit entropy words; digests recorded from
    # the per-trial Generator streams
    out_path = tmp_path / "rows.csv"
    argv = ("simulate", "equal-sums", "--D", "1e6", "--trials", "300",
            "--seed", "1180591620717411303427", "--json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert _sha256(out.encode()) == (
        "de8b63fb15413b767644821a2fec6e732fb27b180fee321d1dd7267076abb41b")
    code, rows_out, _ = run(capsys, *argv, "--out", str(out_path))
    assert code == 0 and rows_out == out
    assert _sha256(out_path.read_bytes()) == (
        "6a6743473068cdafa3cb82b4b74b14e16ab6b19c8cac45ffed0976986b4a87d4")


def test_simulate_amplify_bytes_pinned(capsys):
    # two windows with exact witnesses: k^2 = 4 stacked sets
    code, out, _ = run(
        capsys, "simulate", "amplify", "--D1", "2", "--D2", "10000000000000",
        "--k", "2", "--alpha", "0.25", "--seed", "76", "--json",
    )
    assert code == 0
    assert _sha256(out.encode()) == (
        "7c90211637b99a6fbe65ee011a498c6c164ff78433bd1f24a4b2170c6988b585")


def test_simulate_amplify(capsys):
    code, out, _ = run(
        capsys, "simulate", "amplify", "--D1", "2", "--D2", "1000000",
        "--alpha", "0.5", "--seed", "11", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["k_max"] >= 1
    assert len(doc["windows"]) >= 3


def test_simulate_amplify_alpha_near_one_fails_fast(capsys):
    # about 3M windows: built in full, they ran out of memory after ~27 s
    start = time.perf_counter()
    code, out, err = run(capsys, "simulate", "amplify", "--D1", "2", "--D2", "1000000",
                         "--alpha", "0.999999", "--json")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: amplify window guard") and "100000 windows" in err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_simulate_amplify_needs_positive_k(capsys, k):
    # with k <= 0 every window would succeed with no witness
    code, out, err = run(capsys, "simulate", "amplify", "--D1", "10", "--D2", "1000000",
                         "--k", k, "--alpha", "0.5")
    assert (code, out, err) == (1, "", "usage error: k must be >= 1\n")


def test_simulate_delta_int(capsys):
    code, out, _ = run(
        capsys, "simulate", "delta-int", "--X", "100000", "--samples", "20",
        "--seed", "3", "--json",
    )
    doc = json.loads(out)
    assert code == 0 and doc["samples"] == 20 and doc["max_delta"] >= 1


def test_simulate_delta_perm(capsys):
    code, out, _ = run(
        capsys, "simulate", "delta-perm", "--n", "50", "--samples", "20",
        "--seed", "3", "--json",
    )
    doc = json.loads(out)
    assert code == 0 and doc["kind"] == "permutation"


def test_simulate_delta_poly(capsys):
    code, out, _ = run(
        capsys, "simulate", "delta-poly", "--q", "2", "--n", "2000",
        "--model", "nb", "--samples", "10", "--seed", "3",
        "--dmin", "2", "--dmax", "30", "--json",
    )
    doc = json.loads(out)
    assert code == 0 and doc["kind"] == "polynomial"


DELTA_EXPERIMENTS = [("delta-int", "--X", "1000"), ("delta-perm", "--n", "10"),
                     ("delta-poly", "--dmin", "2", "--dmax", "5")]


@pytest.mark.parametrize("experiment", DELTA_EXPERIMENTS, ids=lambda e: e[0])
def test_simulate_delta_zero_samples_usage_error(capsys, experiment):
    code, _, err = run(capsys, "simulate", *experiment, "--samples", "0")
    assert code == 1
    assert err.startswith("usage error:")


@pytest.mark.parametrize("experiment", DELTA_EXPERIMENTS, ids=lambda e: e[0])
def test_simulate_delta_samples_past_cap_exits_2(capsys, experiment):
    # the cap bounds the run time; the count is guarded before any sample is drawn
    code, out, err = run(capsys, "simulate", *experiment, "--samples", "1000001")
    assert (code, out) == (2, "")
    assert err == "error: samples guard: 1000001 > 1000000\n"


@pytest.mark.parametrize("argv, summary, rows", [
    (("delta-int", "--X", "100000", "--samples", "40"),
     "80add8589f24636d06a1b3c119db48e4ec3868563dcf464fe48ac7e3e9f3e757",
     "02d9bf9d8b31d0b6243023857fd42002964e5bcbc761f4ff407d4aafc3048ace"),
    (("delta-perm", "--n", "50", "--samples", "40"),
     "c0830f23f4c7d60111f8a8f2f4558002962542f4d23d47a21d06a891b38730a1",
     "9ba02e969e8e145f062628865c2ae25dd9555cc54e866f42ed23a7b9f3c33573"),
    (("delta-poly", "--q", "2", "--n", "2000", "--model", "nb", "--samples", "12",
      "--dmin", "2", "--dmax", "30"),
     "091e216fd0188481fa9264149844ec2b14f071377dba73de48fe13f6e3fc32fe",
     "2fd0f4358bf8c6020d50aca5f846c348e3d29071193fae6017d7e77fd0d4a61b"),
], ids=["delta-int", "delta-perm", "delta-poly"])
def test_simulate_delta_out_bytes_pinned(capsys, tmp_path, argv, summary, rows):
    # digests recorded while every sample was kept in memory: the summary
    # folded from the stream and the rows written as they come keep their bytes
    out_path = tmp_path / "rows.csv"
    code, out, err = run(capsys, "simulate", *argv, "--seed", "3", "--json", "--out", str(out_path))
    assert (code, err) == (0, "")
    assert _sha256(out.encode()) == summary
    assert _sha256(out_path.read_bytes()) == rows


@pytest.mark.parametrize("experiment, bad, code, message", [
    *[(e, ("--seed", "-1"), 1, "usage error: expected non-negative integer\n") for e in DELTA_EXPERIMENTS],
    *[(e, ("--samples", "0"), 1, "usage error: samples must be >= 1\n") for e in DELTA_EXPERIMENTS],
    (DELTA_EXPERIMENTS[1], ("--n", "401"), 2, "error: permutation size n guard: 401 > 400\n"),
    (DELTA_EXPERIMENTS[2], ("--q", "6"), 1, "usage error: q = 6 is not a prime power\n"),
], ids=[f"{e[0]}-{bad}" for bad in ("seed", "samples") for e in DELTA_EXPERIMENTS] + ["delta-perm-n", "delta-poly-q"])
def test_simulate_delta_refused_run_writes_no_file(capsys, tmp_path, experiment, bad, code, message):
    # the samplers check every argument before the CSV is opened
    out_path = tmp_path / "rows.csv"
    assert run(capsys, "simulate", *experiment, *bad, "--json", "--out", str(out_path)) == (code, "", message)
    assert not out_path.exists()


def test_simulate_delta_summary_memory_does_not_grow_with_samples(fresh):
    # the summary is folded as the samples stream past: 200,000 of them once
    # peaked at 107 MB, when every sample was kept
    child = fresh(CLI_MAIN, "simulate", "delta-perm", "--n", "2", "--samples", "200000", "--json")
    assert (child.code, child.stderr) == (0, "")
    assert json.loads(child.stdout)["samples"] == 200000
    assert child.peak_rss < 64 << 20


@pytest.mark.parametrize(
    "option, value, message",
    [("--trials", "-3", "trials"), ("--trials", "0", "trials"),
     ("--k", "0", "k"), ("--k", "-2", "k")],
)
@pytest.mark.parametrize("out", [False, True], ids=["summary", "rows"])
def test_simulate_equal_sums_counts_usage_error(capsys, tmp_path, option, value, message, out):
    out_path = tmp_path / "rows.csv"
    extra = ("--out", str(out_path)) if out else ()
    code, stdout, err = run(
        capsys, "simulate", "equal-sums", "--D", "1e5", "--trials", "5",
        option, value, "--json", *extra,
    )
    assert code == 1
    assert stdout == ""
    assert err == f"usage error: {message} must be >= 1\n"
    assert not out_path.exists()


@pytest.mark.parametrize("out", [False, True], ids=["summary", "rows"])
def test_simulate_equal_sums_trials_past_cap_exits_2(capsys, tmp_path, monkeypatch, out):
    # the cap bounds the run time; the count is guarded before any set is drawn
    def no_draws(*args, **kwargs):
        raise AssertionError("the guard must fire before any set is drawn")

    monkeypatch.setattr(simlab, "_philox_keys", no_draws)
    out_path = tmp_path / "rows.csv"
    extra = ("--out", str(out_path)) if out else ()
    code, stdout, err = run(capsys, "simulate", "equal-sums", "--trials", "1000001", "--json", *extra)
    assert (code, stdout) == (2, "")
    assert err == "error: trials guard: 1000001 > 1000000\n"
    assert not out_path.exists()


@pytest.mark.parametrize(
    "D, c",
    [("inf", "0.1"), ("nan", "0.1"), ("1e6", "nan"), ("1e300", "0.1"), ("1e6", "1.5"),
     ("1e6", "1e9"), ("1.5", "0.1")],
)
@pytest.mark.parametrize("out", [False, True], ids=["summary", "rows"])
def test_simulate_equal_sums_window_usage_error(capsys, tmp_path, D, c, out):
    out_path = tmp_path / "rows.csv"
    extra = ("--out", str(out_path)) if out else ()
    code, stdout, err = run(
        capsys, "simulate", "equal-sums", "--D", D, "--c", c, "--trials", "5", "--json", *extra,
    )
    assert code == 1
    assert stdout == ""
    assert err.startswith("usage error: need finite D and c with max(2, ceil(D^c)) <= int(D) <= 2^50")
    assert err.endswith(f"got D = {float(D)}, c = {float(c)}\n")
    assert not out_path.exists()


@pytest.mark.parametrize(
    "given, missing", [(("--dmin", "2"), "--dmax"), (("--dmax", "40"), "--dmin")]
)
def test_simulate_delta_poly_half_window_usage_error(capsys, given, missing):
    code, out, err = run(capsys, "simulate", "delta-poly", *given, "--samples", "3")
    assert code == 1
    assert out == ""
    assert err == f"usage error: --dmin and --dmax go together: {missing} is missing\n"


@pytest.mark.parametrize("n", ["0", "1"])
def test_simulate_delta_poly_default_window_needs_n_2(capsys, n):
    # 10 log n is not positive below n = 2, so there is no default window;
    # at n = 1 a ZeroDivisionError escaped main
    code, out, err = run(capsys, "simulate", "delta-poly", "--n", n, "--samples", "3")
    assert (code, out) == (1, "")
    assert err.startswith("usage error:")
    assert f"needs n >= 2, got n = {n}" in err and "--dmin/--dmax" in err


def test_simulate_delta_poly_explicit_window_at_n_1(capsys):
    code, out, _ = run(capsys, "simulate", "delta-poly", "--n", "1", "--dmin", "1", "--dmax", "1",
                       "--samples", "3", "--json")
    assert code == 0 and json.loads(out)["samples"] == 3


@pytest.mark.parametrize(
    "argv, code",
    [(("delta-perm", "--n", "0"), 1), (("delta-perm", "--n", "-3"), 1),
     (("delta-perm", "--n", "401"), 2),
     (("delta-poly", "--q", "1", "--dmin", "1", "--dmax", "2"), 1),
     (("delta-poly", "--q", "0", "--dmin", "1", "--dmax", "2"), 1),
     (("delta-poly", "--q", str(2**21), "--dmin", "1", "--dmax", "2"), 2),
     (("delta-poly", "--n", "0", "--dmin", "1", "--dmax", "2"), 1)],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
)
def test_simulate_delta_bounds_below_domain_vs_past_cap(capsys, argv, code):
    # a value below the domain is a usage error (exit 1); one past the cap
    # is a size guard (exit 2)
    got, out, err = run(capsys, "simulate", *argv, "--samples", "3")
    assert (got, out) == (code, "")
    assert err.startswith("usage error:" if code == 1 else "error:")


def test_rho_invariant_violation_is_numeric_error(capsys, tmp_path):
    # a well-formed chain in Q^6 (dims 1, 3, 4, 5) whose solved
    # rho_2 = 0.3310... exceeds rho_1 = 0.2972...: a numeric fault, exit 2
    flag_file = tmp_path / "rising.flag"
    flag_file.write_text("110011 110101\n110011 110101 100010\n110011 110101 100010 011010\n")
    code, out, err = run(capsys, "check", "--flag", "file", "--file", str(flag_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: rho_j must not exceed rho_1")


def test_check_past_the_subflag_cap_exits_2(capsys, monkeypatch):
    # the closure reads the cap when it is called: binary order 1's level-1
    # universe holds 2 spaces, one past a cap of 1
    monkeypatch.setattr(flags_mod, "SUBFLAG_SPACE_CAP", 1)
    code, out, err = run(capsys, "check", "--flag", "binary", "--order", "1")
    assert (code, out) == (2, "")
    assert err == f"error: {EnumerationLimitError(1, 2, 1)}\n"


def _long_options(parser, path=()):
    # {subcommand path: its sorted long options}, for every nested subparser
    out = {" ".join(path): sorted(o for a in parser._actions for o in a.option_strings if o.startswith("--"))}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(_long_options(sub, path + (name,)))
    return out


def test_option_surface_is_pinned(capsys):
    # a setting added or removed shows up here; there is no preset file
    assert _long_options(build_parser()) == {
        "": ["--help", "--workers"],
        "rho-table": ["--format", "--help", "--max-j", "--out"],
        "rho-limit": ["--help", "--json", "--tol"],
        "theta": ["--help", "--json", "--r"],
        "eta": ["--help"],
        "constants": ["--help", "--out"],
        "check": ["--file", "--flag", "--help", "--order", "--out", "--perturb"],
        "measures": ["--file", "--flag", "--help", "--order", "--out"],
        "tree": ["--file", "--flag", "--help", "--order", "--out"],
        "simulate": ["--help"],
        "simulate equal-sums": ["--D", "--c", "--help", "--json", "--k", "--out", "--seed", "--trials"],
        "simulate amplify": ["--D1", "--D2", "--alpha", "--help", "--json", "--k", "--seed"],
        "simulate delta-int": ["--X", "--help", "--json", "--out", "--samples", "--seed", "--trials"],
        "simulate delta-perm": ["--help", "--json", "--n", "--out", "--samples", "--seed", "--trials"],
        "simulate delta-poly": ["--dmax", "--dmin", "--help", "--json", "--model", "--n", "--out", "--q",
                                "--samples", "--seed", "--trials"],
    }
    code, out, err = run(capsys, "--config=presets.cfg", "eta")
    assert (code, out) == (1, "")
    assert err.startswith("usage error:") and "--config" in err


def test_unknown_subcommand_usage(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def _readme_commands():
    """Every `cubeflags ...` line of the README's code blocks, continuations
    joined, comments dropped and optional [...] parts written out."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = []
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if line.startswith("cubeflags "):
            commands.append(shlex.split(line.replace("[", " ").replace("]", " "))[1:])
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 15
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except UsageError as exc:
            pytest.fail(f"README line `cubeflags {' '.join(argv)}`: {exc}")


def test_every_public_name_has_a_caller():
    # each top-level public function or class of the package is used by other
    # package code (__init__'s re-exports do not count), named in the README,
    # or used by the acceptance tests: a name with none of these is dead code
    root = Path(__file__).resolve().parents[1]

    def names(node):
        return {n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}

    users = collections.defaultdict(set)  # name -> the (file, top-level statement) that use it
    public = []
    for path in sorted((root / "src" / "cubeflags").glob("*.py")):
        for i, top in enumerate(ast.parse(path.read_text()).body):
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
                public.append((path.name, i, top.name))
            if path.name != "__init__.py":
                for name in names(top):
                    users[name].add((path.name, i))
    readme = (root / "README.md").read_text()
    acceptance = names(ast.parse((root / "tests" / "test_acceptance.py").read_text()))
    dead = [f"{file}:{name}" for file, i, name in public
            if not (users[name] - {(file, i)} or re.search(rf"\b{name}\b", readme) or name in acceptance)]
    assert dead == []


def test_import_heap_is_frozen_by_the_cli_only(fresh):
    # the library leaves a host process's collector alone; the CLI moves the
    # import-time heap into the permanent generation
    assert fresh("import gc, cubeflags\nprint(gc.get_freeze_count())")[:2] == (0, "0\n")
    frozen = fresh("import gc, cubeflags.cli\nprint(gc.get_freeze_count())")
    assert frozen.code == 0 and int(frozen.stdout) > 0


def test_cli_import_leaves_no_cyclic_garbage(fresh):
    # why no collect() precedes the freeze: were an import-time change to
    # leave cyclic garbage, the freeze would keep it alive for the whole run
    assert fresh("import gc, cubeflags.cli\ngc.unfreeze()\nprint(gc.collect())")[:2] == (0, "0\n")
