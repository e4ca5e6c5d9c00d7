import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from prolate import ParameterError
from prolate.cli import figure2_instances, figure3_instances, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_width_fig1_record(capsys):
    code, out, _ = run(capsys, "width", "--n", "1000", "--w", "0.125", "--eps", "1e-3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,W,eps,width,thm1,thm2,eq2,eq3,eq6"
    fields = lines[1].split(",")
    assert fields[3:] == ["12", "14", "23", "1806", "1000", "185"]


def test_width_eq3_outside_domain_prints_empty(capsys):
    code, out, err = run(capsys, "width", "--n", "392", "--w", "1e-12", "--eps", "0.01")
    assert code == 0 and err == ""
    assert out.strip().splitlines()[1].split(",")[3:] == ["0", "10", "11", "163", "", "135"]


def test_eigs_order_one(capsys):
    code, out, _ = run(capsys, "eigs", "--n", "1", "--w", "0.1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,lambda,lower,upper,in_envelope"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "0"
    assert float(fields[1]) == pytest.approx(0.2, abs=1e-15)


def test_eigs_fig1_plunge_row(capsys):
    code, out, _ = run(capsys, "eigs", "--n", "1000", "--w", "0.125")
    assert code == 0
    rows = {line.split(",")[0]: line.split(",") for line in out.strip().splitlines()[1:]}
    assert "243" in rows
    assert round(float(rows["243"][1]), 4) == 0.9997
    assert all(fields[4] == "true" for fields in rows.values())


def test_eigs_methods_agree(capsys):
    code, out_d, _ = run(
        capsys, "eigs", "--n", "256", "--w", "0.1", "--method", "dense", "--krange", "40:60"
    )
    assert code == 0
    code, out_t, _ = run(
        capsys, "eigs", "--n", "256", "--w", "0.1", "--method", "trid", "--krange", "40:60"
    )
    assert code == 0
    lam_d = [float(line.split(",")[1]) for line in out_d.strip().splitlines()[1:]]
    lam_t = [float(line.split(",")[1]) for line in out_t.strip().splitlines()[1:]]
    assert max(abs(a - b) for a, b in zip(lam_d, lam_t)) <= 1e-10


def test_bounds_no_spectrum(capsys):
    code, out, _ = run(
        capsys, "bounds", "--n", "2", "--w", "0.25", "--eps", "0.25", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)[0]
    assert record["thm1_int"] == 2
    assert all(v is None or isinstance(v, (int, float, bool)) for v in record.values())


def test_sweep_empty_range(capsys, tmp_path):
    out_path = tmp_path / "empty.csv"
    code, _, _ = run(
        capsys, "sweep", "--mode", "figure2", "--n-min", "32", "--n-max", "16", "--out", str(out_path)
    )
    assert code == 0
    assert out_path.read_text() == "N,W,eps,width,bound_thm1,bound_thm2,gap,advisory\n"


def test_sweep_small_figure2(capsys):
    code, out, _ = run(
        capsys, "sweep", "--mode", "figure2", "--n-min", "16", "--n-max", "64",
        "--eps-list", "1e-3,1e-8",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,W,eps,width,bound_thm1,bound_thm2,gap,advisory"
    assert len(lines) == 1 + 3 * 2
    for line in lines[1:]:
        fields = line.split(",")
        width, b1 = int(fields[3]), int(fields[4])
        assert width <= b1
        assert int(fields[6]) == b1 - width


def test_sweep_config_file(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("mode = figure2\nn_min = 16\nn_max = 32\neps = 1e-2\n")
    code, out, _ = run(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_sweep_config_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("mode = figure2\nn_mx = 32\n")
    code, out, err = run(capsys, "sweep", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "'n_mx'" in err


@pytest.mark.parametrize(
    "argv, config",
    [
        (["eigs", "--n", "100", "--w", "0.1", "--krange", "5-9"], None),
        (["sweep", "--n-max", "abc"], None),
        (["sweep", "--mode", "custom", "--n", "64", "--w", "abc"], None),
        (["sweep"], "n_max = abc\n"),
    ],
)
def test_malformed_number_exit_two(capsys, tmp_path, argv, config):
    if config is not None:
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "figure2", "--n-min", "0"],
        ["--mode", "figure2", "--n-min", "-4"],
        ["--mode", "figure3", "--w-points", "-3"],
        ["--mode", "figure3", "--w-min", "0"],
        ["--mode", "figure3", "--w-min", "-0.1"],
        ["--mode", "figure3", "--w-max", "0.5"],
        ["--mode", "figure3", "--w-min", "nan"],
    ],
)
def test_sweep_range_rejected(capsys, argv):
    code, out, err = run(capsys, "sweep", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_sweep_instances_reject_ranges():
    with pytest.raises(ParameterError):
        figure2_instances(0, 16)  # doubling 0 never reaches n_max
    with pytest.raises(ParameterError):
        figure3_instances(64, 1e-3, 0.25, -1)
    with pytest.raises(ParameterError):
        figure3_instances(64, 0.0, 0.25, 5)


@pytest.mark.parametrize("method", ["dense", "trid"])
@pytest.mark.parametrize("krange", ["90:120", "-1:5", "9:5"])
def test_eigs_krange_out_of_range(capsys, method, krange):
    code, out, err = run(
        capsys, "eigs", "--n", "100", "--w", "0.1", "--method", method, f"--krange={krange}"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --krange") and err.count("\n") == 1


def test_eigs_oversized_trid_slice_exit_two(capsys):
    # every order at N = 2^16 is refused before the eigenvector block is allocated
    code, out, err = run(
        capsys, "eigs", "--n", "65536", "--w", "0.2", "--krange", "0:65535", "--method", "trid"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_pswf_matches_thm2(capsys):
    import math

    c = math.pi * 1000 * 0.125
    code, out, _ = run(capsys, "pswf", "--c", repr(c), "--eps", "1e-3")
    assert code == 0
    fields = out.strip().splitlines()[1].split(",")
    assert fields[3] == "23"


@pytest.mark.parametrize("c", ["inf", "-inf", "nan", "1e308"])
def test_pswf_nonfinite_exit_two(capsys, c):
    code, out, err = run(capsys, "pswf", f"--c={c}", "--eps", "1e-3", "--n", "4000")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["width", "bounds"])
def test_overflowing_bound_exit_two(capsys, command):
    code, out, err = run(capsys, command, "--n", "10", "--w", "0.1", "--eps", "5e-324")
    assert code == 2
    assert out == ""
    assert err == "error: thm1 overflows in double precision\n"


@pytest.mark.parametrize("command", ["width", "sweep"])
def test_eps_below_resolution_floor_exit_two(capsys, command):
    # counts below the 1e-15 floor rest on rounding noise; refused with one line
    flag = "--eps" if command == "width" else "--eps-list"
    argv = ["--n", "1867", "--w", "0.009358314139518875", flag, "1e-20"]
    if command == "sweep":
        argv = ["--mode", "custom", *argv]
    code, out, err = run(capsys, command, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: eps must exceed the resolution floor 1e-15, got 1e-20\n"


def test_pswf_proxy_widths(capsys):
    import math

    code, out, _ = run(
        capsys, "pswf", "--c", repr(math.pi * 50.0), "--eps", "1e-2", "--n", "2000",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)[0]
    assert record["width_lo"] is not None
    assert record["width_lo"] <= record["thm3_int"]
    assert record["delta"] == pytest.approx(0.0013143955093473106, rel=1e-12)


def test_verify_displacement_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "displacement")
    assert code == 0
    summary = json.loads(out)
    assert summary["passed"] is True
    assert summary["failures"] == []


def test_verify_all_deterministic(capsys):
    code, first, _ = run(capsys, "verify", "--suite", "all", "--seed", "7")
    assert code == 0
    summary = json.loads(first)
    assert summary["passed"] is True
    assert summary["n_checks"] >= 25
    # every check runs again in a run of its own suite, which shares no spectrum
    # with the other suites, and must give the same record
    alone = []
    for suite in ("spectrum", "bounds", "displacement", "chebsinc"):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--seed", "7")
        assert code == 0
        alone += json.loads(out)["checks"]
    assert alone == summary["checks"]


def test_sweep_figure1_emits_eigs_table(capsys):
    code, out, _ = run(capsys, "sweep", "--mode", "figure1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,lambda,lower,upper,in_envelope"
    ks = [int(line.split(",")[0]) for line in lines[1:]]
    assert ks[0] <= 243 and ks[-1] >= 256  # covers the published plunge rows


@pytest.mark.parametrize("config", [None, "n = 1000\nw = 0.125\n"])
def test_sweep_figure1_flags_win(capsys, tmp_path, config):
    argv = ["sweep", "--mode", "figure1", "--n", "64", "--w", "0.2"]
    if config is not None:
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    code, expected, _ = run(capsys, "eigs", "--n", "64", "--w", "0.2")
    assert code == 0
    assert out == expected


def test_sweep_custom_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("mode = custom\nn_list = 32\nw_list = 0.1\neps = 1e-2\n")
    code, out, _ = run(capsys, "sweep", "--config", str(cfg), "--n", "16,64", "--w", "0.2")
    assert code == 0
    rows = [line.split(",")[:3] for line in out.strip().splitlines()[1:]]
    assert rows == [["16", "0.20000000000000001", "0.01"], ["64", "0.20000000000000001", "0.01"]]
    code, out, _ = run(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    rows = [line.split(",")[:3] for line in out.strip().splitlines()[1:]]
    assert rows == [["32", "0.10000000000000001", "0.01"]]


def test_bad_parameters_exit_two(capsys):
    code, _, err = run(capsys, "width", "--n", "1000", "--w", "0.7", "--eps", "1e-3")
    assert code == 2
    assert "error" in err


def test_unknown_flag_exit_two(capsys):
    code, _, _ = run(capsys, "width", "--nope", "3")
    assert code == 2


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["pswf", "--c", "-inf", "--eps", "1e-3"], "argument --c: expected one argument"),
        (["width", "--n", "64", "--w", "0.1", "--eps", "1e-2", "--nope"], "unrecognized"),
        (["width", "--n", "64", "--w", "0.1"], "required: --eps"),
    ],
)
def test_usage_error_one_line(capsys, argv, reason):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert reason in err


def test_one_parser_serves_a_usage_error_and_the_next_call(capsys):
    # the parser is built once per process; an error must leave nothing behind
    from prolate.cli import _build_parser

    calls = [
        ["width", "--n", "64", "--w", "0.1"],
        ["width", "--n", "64", "--w", "0.1", "--eps", "1e-2"],
        ["verify", "--suite", "abc"],
        ["bounds", "--n", "64", "--w", "0.1", "--eps", "1e-2"],
    ]
    _build_parser.cache_clear()
    shared = [run(capsys, *argv) for argv in calls]
    assert _build_parser() is _build_parser()
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 2, 0]


def test_numerical_error_exit_four(capsys, monkeypatch):
    # a solver failure is not a bad parameter: its own exit code, one line
    import prolate.spectrum as spectrum
    from prolate import NumericalError

    def fail(params, probes):
        raise NumericalError("probe did not converge")

    monkeypatch.setattr(spectrum, "_solve_probes", fail)  # the width search's probe
    code, out, err = run(capsys, "width", "--n", "64", "--w", "0.1", "--eps", "1e-2")
    assert code == 4
    assert out == ""
    assert err == "error: probe did not converge\n"


def test_unwritable_output_exit_three(capsys, tmp_path):
    target = tmp_path / "missing" / "out.csv"
    code, _, err = run(
        capsys, "width", "--n", "64", "--w", "0.1", "--eps", "1e-2", "--out", str(target)
    )
    assert code == 3
    assert "i/o error" in err


def test_float_formatting_17_digits(capsys):
    code, out, _ = run(capsys, "eigs", "--n", "1", "--w", "0.1")
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[1] == "0.20000000000000001"


# ------------------------------------------------------- input contract --

BIG = str(10**309)  # 310 digits: more than any double holds


@pytest.mark.parametrize(
    "argv, code",
    [
        # eigs
        (["eigs", "--n", "abc", "--w", "0.1"], 2),
        (["eigs", "--n", BIG, "--w", "0.1"], 2),
        (["eigs", "--n", "64", "--w", "nan"], 2),
        (["eigs", "--n", "64", "--w", "0.1", "--krange", "abc"], 2),
        (["eigs", "--n", "64", "--w", "0.1", "--method", "inf"], 2),
        (["eigs", "--n", "64", "--w", "0.1", "--format", ""], 2),
        (["eigs", "--n", "64", "--w", "0.1", "--out", ""], 3),
        # width
        (["width", "--n", "-1", "--w", "0.1", "--eps", "1e-3"], 2),
        (["width", "--n", str(10**155), "--w", "0.1", "--eps", "1e-3"], 2),
        (["width", "--n", BIG, "--w", "0.1", "--eps", "1e-3"], 2),
        (["width", "--n", "64", "--w", "inf", "--eps", "1e-3"], 2),
        (["width", "--n", "64", "--w", "0.1", "--eps", "0"], 2),
        (["width", "--n", "64", "--w", "0.1", "--eps", "1e-3", "--format", "nan"], 2),
        (["width", "--n", "64", "--w", "0.1", "--eps", "1e-3", "--out", ""], 3),
        # bounds
        (["bounds", "--n", BIG, "--w", "0.1", "--eps", "1e-3"], 2),
        (["bounds", "--n", "100", "--w", "", "--eps", "1e-3"], 2),
        (["bounds", "--n", "100", "--w", "0.1", "--eps", "nan"], 2),
        (["bounds", "--n", "100", "--w", "0.1", "--eps", "1e-3", "--k", "-1"], 2),
        (["bounds", "--n", "100", "--w", "0.1", "--eps", "1e-3", "--k", "abc"], 2),
        (["bounds", "--n", "100", "--w", "0.1", "--eps", "1e-3", "--K", "-1"], 2),
        (["bounds", "--n", "100", "--w", "0.1", "--eps", "1e-3", "--K", BIG], 2),
        (["bounds", "--n", "100", "--w", "0.1", "--eps", "1e-3", "--format", "abc"], 2),
        (["bounds", "--n", "100", "--w", "0.1", "--eps", "1e-3", "--out", ""], 3),
        # sweep
        (["sweep", "--mode", "abc"], 2),
        (["sweep", "--mode", "figure1", "--n", BIG], 2),
        (["sweep", "--mode", "figure1", "--w", "nan"], 2),
        (["sweep", "--mode", "figure2", "--n-min", "-1"], 2),
        (["sweep", "--mode", "figure2", "--n-max", "nan"], 2),
        (["sweep", "--mode", "figure3", "--n", "abc"], 2),
        (["sweep", "--mode", "figure3", "--n", BIG, "--w-points", "3"], 2),
        (["sweep", "--mode", "figure3", "--n", "64", "--w-points", "3", "--w-min", "inf"], 2),
        (["sweep", "--mode", "figure3", "--n", "64", "--w-points", "3", "--w-max", "-1"], 2),
        (["sweep", "--mode", "figure3", "--n", "64", "--w-points", "-1"], 2),
        (["sweep", "--mode", "figure3", "--n", "64", "--w-points", BIG], 2),
        (["sweep", "--mode", "custom", "--n", BIG, "--w", "0.1"], 2),
        (["sweep", "--mode", "custom", "--n", "64", "--w", "0.1", "--eps-list", "abc"], 2),
        (["sweep", "--mode", "custom", "--n", "64", "--w", "0.1", "--format", "0"], 2),
        (["sweep", "--mode", "custom", "--n", "64", "--w", "0.1", "--out", ""], 3),
        # pswf
        (["pswf", "--c", "0", "--eps", "1e-3"], 2),
        (["pswf", "--c", "3", "--eps", "inf"], 2),
        (["pswf", "--c", "3", "--eps", "1e-3", "--n", "-1"], 2),
        (["pswf", "--c", "3", "--eps", "1e-3", "--n", BIG], 2),
        (["pswf", "--c", "3", "--eps", "1e-3", "--n", str(10**103)], 2),
        (["pswf", "--c", "6e102", "--eps", "1e-3", "--n", str(4 * 10**102)], 2),
        (["pswf", "--c", "3", "--eps", "1e-3", "--format", "-1"], 2),
        (["pswf", "--c", "3", "--eps", "1e-3", "--out", ""], 3),
        # verify
        (["verify", "--suite", "abc"], 2),
        (["verify", "--seed", "-1"], 2),
        (["verify", "--seed", "nan"], 2),
        (["verify", "--suite", "displacement", "--out", ""], 3),
        # an N past the entry cap in a sweep (alone here, so that a sweep that
        # computed the instances before it would still end at once)
        (["sweep", "--mode", "figure2", "--n-min", str(2**25), "--n-max", str(2**30)], 2),
        (["sweep", "--mode", "custom", "--n", str(2**25), "--w", "0.1"], 2),
        # an empty entry in a comma list is refused, not skipped
        (["sweep", "--mode", "custom", "--n", "64", "--w", "0.1", "--eps-list", "1e-3,,1e-8"], 2),
        (["sweep", "--mode", "custom", "--n", "64", "--w", "0.1", "--eps-list", "1e-3,"], 2),
        (["sweep", "--mode", "custom", "--n", "64", "--w", "0.1", "--eps-list", ", 1e-3"], 2),
        (["sweep", "--mode", "figure2", "--n-max", "16", "--eps-list", "1e-3,,1e-8"], 2),
        (["sweep", "--mode", "custom", "--n", "64,,128", "--w", "0.1"], 2),
        (["sweep", "--mode", "custom", "--n", ",64", "--w", "0.1"], 2),
        (["sweep", "--mode", "custom", "--n", "64", "--w", "0.1,"], 2),
        (["sweep", "--mode", "custom", "--n", "64", "--w", "0.1, ,0.2"], 2),
    ],
)
def test_input_contract(capsys, argv, code):
    # a malformed input gets its exit code and one line on stderr: no output,
    # no traceback (an escaping exception fails the test) and no warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("i/o error: " if code == 3 else "error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Warning" not in err
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--mode", "figure3", "--n", "64", "--w-points", "3", "--w-min", "inf"],
        ["pswf", "--c", "6e102", "--eps", "1e-3", "--n", str(4 * 10**102)],
    ],
)
def test_input_contract_in_a_fresh_process(argv):
    # what a user sees: numpy warnings and tracebacks would both reach stderr
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "prolate.cli", *argv], env=env, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_sweep_checks_every_instance_before_computing(capsys, monkeypatch):
    # figure 2 up to 10^309 doubles N past the largest double; that instance is
    # refused before any width is computed (N = 2^24 alone would take minutes)
    import prolate.spectrum as spectrum

    def fail(params, eps_list):
        raise AssertionError(f"computed N = {params.n} before every instance was checked")

    monkeypatch.setattr(spectrum, "transition_widths", fail)
    code, out, err = run(capsys, "sweep", "--mode", "figure2", "--n-max", BIG)
    assert (code, out, err) == (2, "", "error: n must fit in a double, got 1025 bits\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "figure2", "--n-max", str(2**30)],
        ["--mode", "custom", "--n", f"64,{2**25}", "--w", "0.1"],
    ],
)
def test_sweep_checks_the_entry_cap_before_computing(capsys, monkeypatch, argv):
    # N = 2^25 holds more entries than the cap even one order at a time; it is
    # refused before the smaller instances take minutes and gigabytes
    import prolate.spectrum as spectrum

    def fail(params, eps_list):
        raise AssertionError(f"computed N = {params.n} before every instance was checked")

    monkeypatch.setattr(spectrum, "transition_widths", fail)
    code, out, err = run(capsys, "sweep", *argv)
    assert (code, out) == (2, "")
    assert err == (
        "error: 1 eigenvector(s) of length 33554432 exceed the entry cap 16777216 "
        "(the dense cap squared)\n"
    )


def test_bounds_at_huge_n_prints_finite_values(capsys):
    # every closed form is finite at N = 10^155: in doubles, eq3's N^2 is inf
    # and its term 0, where N**2 as an integer could not be converted
    n = 10**155
    code, out, err = run(capsys, "bounds", "--n", str(n), "--w", "0.1", "--eps", "1e-3")
    assert (code, err) == (0, "")
    header, row = out.splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert all(math.isfinite(float(v)) for v in values.values())
    thm1 = 2 * math.ceil(math.log(4 * n) * math.log(4.0 / (1e-3 * (1 - 1e-3))) / math.pi**2)
    assert int(values["thm1_int"]) == thm1
    eq3 = (math.log(2 * n // 10) / math.pi**2 + 0.45 - 2.0 / 3.0 * 0.01) / (1e-3 * (1 - 1e-3))
    assert float(values["eq3_boulsane"]) == pytest.approx(eq3, rel=1e-13)


def _bounds_row(capsys, n):
    code, out, err = run(capsys, "bounds", "--n", str(n), "--w", "0.1", "--eps", "1e-3")
    assert (code, err) == (0, "")
    header, row = out.splitlines()
    return dict(zip(header.split(","), row.split(",")))


def test_bounds_past_the_splitter_limit_keep_eq3(capsys):
    # at N = 10^305 the Veltkamp split's 2^27 + 1 multiply would overflow: N
    # is split at 2^-28 its size, so eq3 is printed and stderr stays empty
    mpmath = pytest.importorskip("mpmath")
    n = 10**305
    values = _bounds_row(capsys, n)
    with mpmath.workdps(50):
        w, eps = mpmath.mpf(0.1), mpmath.mpf(1e-3)
        s = mpmath.sin(2 * mpmath.pi * n * w)
        eq3 = (
            mpmath.log(2 * n * w) / mpmath.pi**2 + mpmath.mpf(0.45) - 2 * w**2 / 3
            + s**2 / (6 * mpmath.pi**2 * n**2)
        ) / (eps * (1 - eps))
    assert float(values["eq3_boulsane"]) == pytest.approx(float(eq3), rel=1e-14)
    assert int(values["eq3_boulsane_int"]) == int(mpmath.floor(eq3))


def test_bounds_at_the_largest_doubles_print_every_width_bound(capsys):
    # c = pi N W overflows at N = 10^308, W = 0.1; thm2 (and thm3 at that c,
    # the same expression) is about 1235 there, eq2, eq3 and eq6 finite too
    mpmath = pytest.importorskip("mpmath")
    n = 10**308
    values = _bounds_row(capsys, n)
    with mpmath.workdps(50):
        w, eps = mpmath.mpf(0.1), mpmath.mpf(1e-3)
        rate = mpmath.log(5 / (eps * (1 - eps)))
        thm2 = 2 / mpmath.pi**2 * mpmath.log(100 * n * w + 25) * rate + 7
        eq2 = (2 / mpmath.pi**2 * (mpmath.log(n - 1) + mpmath.mpf(2 * n - 1) / (n - 1))) / (
            eps * (1 - eps)
        )
        eq6 = (8 / mpmath.pi**2 * mpmath.log(8 * n) + 12) * mpmath.log(15 / eps)
    for key, ref in (("thm2", thm2), ("thm3_pswf", thm2), ("eq2_zhuwakin", eq2), ("eq6_fst", eq6)):
        assert float(values[key]) == pytest.approx(float(ref), rel=1e-14), key
        assert int(values[key + "_int"]) == int(mpmath.floor(ref)), key
    assert values["thm2_int"] == "1235"
    assert math.isfinite(float(values["eq3_boulsane"]))


@pytest.mark.parametrize("exponent", [306, 307, 308])
def test_bounds_envelopes_at_huge_n_stay_finite(capsys, exponent):
    # with --k and --K every printed value is finite; the continuous-case
    # envelope and sums are left out once 100c = 100 pi N W overflows
    argv = ["--n", str(10**exponent), "--w", "0.1", "--eps", "1e-3", "--k", "5", "--K", "5"]
    code, out, err = run(capsys, "bounds", *argv)
    assert (code, err) == (0, "")
    header, row = out.splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    numbers = [v for k, v in values.items() if v and k != "slepian_approx_advisory"]
    assert all(math.isfinite(float(v)) for v in numbers)
    assert ("cor3_lower" in values) == (exponent == 306)


def test_bounds_acceptance_instance(capsys):
    code, out, err = run(
        capsys, "bounds", "--n", "1000", "--w", "0.125", "--eps", "1e-3", "--k", "250", "--K", "250"
    )
    assert (code, err) == (0, "")
    header, row = out.splitlines()
    assert header == (
        "N,W,eps,cor1_lower,cor1_upper,cor2_head,cor2_tail,cor3_lower,cor3_upper,"
        "cor4_head,cor4_tail,eq2_zhuwakin,eq2_zhuwakin_int,eq3_boulsane,eq3_boulsane_int,"
        "eq4_boulsane1,eq5_boulsane2,eq6_fst,eq6_fst_int,slepian_approx,"
        "slepian_approx_advisory,thm1,thm1_int,thm2,thm2_int,thm3_pswf,thm3_pswf_int"
    )
    fields = dict(zip(header.split(","), row.split(",")))
    assert {key: val for key, val in fields.items() if key.endswith(("_int", "_advisory"))} == {
        "eq2_zhuwakin_int": "1806",
        "eq3_boulsane_int": "1000",
        "eq6_fst_int": "185",
        "slepian_approx_advisory": "false",
        "thm1_int": "14",
        "thm2_int": "23",
        "thm3_pswf_int": "23",
    }
    # prior per-index bounds outside their validity print empty
    assert fields["eq4_boulsane1"] == fields["eq5_boulsane2"] == ""


def test_eigs_empty_run_prints_order_zero(capsys):
    # no eigenvalue lies in (1e-13, 1 - 1e-13) at W = 1e-20: eigs lists lambda_0 alone
    code, out, err = run(capsys, "eigs", "--n", "8", "--w", "1e-20")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("0,")
    assert float(lines[1].split(",")[1]) == pytest.approx(16e-20, rel=1e-12)  # about 2NW


def test_sweep_config_comments_blank_lines_and_bad_line(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("# one instance\n\nmode = figure2  # W = 1/4\nn_min = 16\nn_max = 16\neps = 1e-2\n")
    code, out, _ = run(capsys, "sweep", "--config", str(cfg))
    assert code == 0 and len(out.splitlines()) == 2
    cfg.write_text("mode = figure2\nn_max 32\n")
    code, out, err = run(capsys, "sweep", "--config", str(cfg))
    assert (code, out, err) == (2, "", "error: bad config line: n_max 32\n")


@pytest.mark.parametrize(
    "config, entry",
    [
        ("mode = custom\nn_list = 64\nw_list = 0.1\neps = 1e-3,,1e-8\n", "eps"),
        ("mode = figure2\nn_min = 16\nn_max = 16\neps = 1e-3,\n", "eps"),
        ("mode = custom\nn_list = 64,,128\nw_list = 0.1\n", "n_list"),
        ("mode = custom\nn_list = 64\nw_list = 0.1,\n", "w_list"),
    ],
)
def test_sweep_config_list_with_an_empty_entry_exits_two(capsys, tmp_path, config, entry):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(config)
    code, out, err = run(capsys, "sweep", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {entry} has an empty entry, got ") and err.count("\n") == 1


def test_sweep_without_an_eps_list_takes_the_default(capsys):
    code, out, _ = run(capsys, "sweep", "--mode", "custom", "--n", "64", "--w", "0.1")
    assert code == 0
    assert [line.split(",")[2] for line in out.splitlines()[1:]] == ["0.001", "1e-08", "1e-13"]


CUSTOM = ["--mode", "custom", "--n", "64", "--w", "0.1"]


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (CUSTOM + ["--eps-list", ""], None, "eps has an empty entry"),
        (CUSTOM + ["--eps-list", ""], "eps = 1e-2\n", "eps has an empty entry"),
        (["--mode", "figure1", "--n", "", "--w", "0.2"], None, "n must be an integer"),
        (["--mode", "figure1", "--n", "", "--w", "0.2"], "n = 64\n", "n must be an integer"),
        (["--mode", "figure3", "--w-min", ""], "w_min = 0.01\n", "w_min must be a number"),
        (["--mode", "custom", "--n", "", "--w", "0.1"], "n_list = 64\n", "n_list has an empty"),
        (["--mode", "figure2", "--n-max", "16"], "eps =\n", "eps has an empty entry"),
    ],
)
def test_sweep_empty_setting_exits_two(capsys, tmp_path, argv, config, message):
    # an option or config value given as the empty string is parsed, and
    # refused, like any other value: it neither takes the default nor yields
    # to the config value
    if config is not None:
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    code, out, err = run(capsys, "sweep", *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, config, missing",
    [
        (["--mode", "custom", "--w", "0.1"], None, "n_list"),
        (["--mode", "custom", "--n", "64"], None, "w_list"),
        (["--mode", "custom"], None, "n_list"),
        ([], "mode = custom\nw_list = 0.1\n", "n_list"),
        ([], "mode = custom\nn_list = 64\n", "w_list"),
        (["--n", "64"], "mode = custom\neps = 1e-2\n", "w_list"),
    ],
)
def test_custom_sweep_without_a_list_exits_two(capsys, tmp_path, argv, config, missing):
    if config is not None:
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    code, out, err = run(capsys, "sweep", *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: custom mode needs {missing} ") and err.count("\n") == 1


def test_eigensolver_failure_exit_four(capsys, monkeypatch):
    # a nonzero info from LAPACK stebz bisecting by index surfaces as
    # NumericalError, exit 4; a slice bisects by index (a width probe first
    # bisects in a predicted window, see test_stebz_window_failure_raises)
    import numpy as np
    import prolate.spectrum as spectrum

    bisect = spectrum.dstebz

    def fail_by_index(diag, off, select, vl, vu, il, iu, tol, order):
        if select != 2:
            return bisect(diag, off, select, vl, vu, il, iu, tol, order)
        empty = np.zeros(diag.size, dtype=np.int32)
        return 0, np.zeros(diag.size), empty, empty, 1

    monkeypatch.setattr(spectrum, "dstebz", fail_by_index)
    code, out, err = run(capsys, "eigs", "--n", "64", "--w", "0.1")
    assert (code, out) == (4, "")
    assert err.startswith("error: LAPACK stebz failed in indices ")
    assert err.endswith(" of a block of 32 (info=1)\n") and err.count("\n") == 1
