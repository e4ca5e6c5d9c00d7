import json

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
    code, second, _ = run(capsys, "verify", "--suite", "all", "--seed", "7")
    assert code == 0
    assert first == second
    summary = json.loads(first)
    assert summary["passed"] is True
    assert summary["n_checks"] >= 25


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
