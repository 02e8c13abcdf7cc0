"""Config parsing, sweep orchestration, CSV/SVG output, and CLI exit codes."""

import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from ldpcdesign.cli import main
from ldpcdesign.experiment import (
    ConfigError, ExperimentConfig, SweepRow, emit_csv, parse_alpha_values,
    parse_config, parse_degree_poly, read_csv_rows, render_config, run_sweep)
from ldpcdesign.svgplot import NoPlottableRows, emit_svg_plot


# --- config parsing -------------------------------------------------------


def test_parse_config_range_alpha():
    cfg = parse_config("rho = x^3\nepsilon = 0.3\ndv_max = 6\n"
                       "alpha = 0.2:0.1:1.0\n")
    assert len(cfg.alpha_values) == 9
    assert cfg.alpha_values[0] == pytest.approx(0.2)
    assert cfg.alpha_values[-1] == pytest.approx(1.0)
    assert cfg.rho_coeffs == {4: 1.0}
    assert cfg.solver == "both"
    assert cfg.target == 1e-6


def test_parse_config_mixed_rho():
    cfg = parse_config("rho = 4:0.5,5:0.5\nepsilon = 0.4\ndv_max = 8\n")
    assert cfg.rho_coeffs == {4: 0.5, 5: 0.5}


def test_parse_config_epsilon_out_of_range():
    with pytest.raises(ConfigError, match="epsilon"):
        parse_config("rho = x^3\nepsilon = 1.5\ndv_max = 6\n")


def test_parse_config_unknown_key_with_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("rho = x^3\nbogus = 1\nepsilon = 0.3\ndv_max = 6\n")


def test_parse_config_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("rho = x^3\nrho = x^5\nepsilon = 0.3\ndv_max = 6\n")


def test_parse_config_missing_required():
    with pytest.raises(ConfigError, match="rho"):
        parse_config("epsilon = 0.3\ndv_max = 6\n")


def test_parse_config_comments_and_blank_lines():
    cfg = parse_config("# comment\nrho = x^3  # inline\n\nepsilon = 0.3\n"
                       "dv_max = 6\n")
    assert cfg.rho_coeffs == {4: 1.0}


def test_config_round_trip():
    cfg = parse_config("rho = 4:0.25,6:0.75\nepsilon = 0.35\ndv_max = 7\n"
                       "alpha = 0.4,0.8\nsolver = lp\ntarget = 1e-5\n"
                       "out_csv = a.csv\nout_svg = a.svg\n")
    assert parse_config(render_config(cfg)) == cfg


def test_parse_degree_poly_shorthand():
    assert parse_degree_poly("x") == {2: 1.0}
    assert parse_degree_poly("x^5") == {6: 1.0}
    with pytest.raises(ConfigError):
        parse_degree_poly("x**2")
    with pytest.raises(ConfigError):
        parse_degree_poly("3:0.5,4:0.4")  # does not sum to 1


def test_parse_alpha_values():
    assert parse_alpha_values("0.5") == (0.5,)
    assert parse_alpha_values("0.2,0.4") == (0.2, 0.4)
    assert len(parse_alpha_values("0.1:0.1:0.5")) == 5
    with pytest.raises(ConfigError):
        parse_alpha_values("0.0,0.5")
    with pytest.raises(ConfigError):
        parse_alpha_values("0.5:0.1")


# --- sweep and CSV --------------------------------------------------------


def _small_config(tmp_path, solver="lp", alphas=(0.5, 1.0)):
    return ExperimentConfig(
        rho_coeffs={4: 1.0}, epsilon=0.3, dv_max=4,
        alpha_values=tuple(alphas), solver=solver,
        out_csv=str(tmp_path / "sweep.csv"),
        out_svg=str(tmp_path / "sweep.svg"))


def test_run_sweep_rows_sorted_and_certified(tmp_path):
    cfg = _small_config(tmp_path, solver="both")
    rows = run_sweep(cfg)
    assert len(rows) == 4
    assert [(r.alpha, r.solver) for r in rows] == sorted(
        (r.alpha, r.solver) for r in rows)
    for r in rows:
        assert r.status == "optimal"
        assert r.gap == pytest.approx(1.0 - r.rate / 0.7, abs=1e-10)
        assert r.min_slack >= -1e-9


def test_run_sweep_survives_infeasible_alpha(tmp_path):
    # 0.05 is below the feasibility floor; later alphas must still solve.
    cfg = _small_config(tmp_path, alphas=(0.05, 0.5))
    rows = run_sweep(cfg)
    assert rows[0].status == "infeasible"
    assert rows[0].rate is None
    assert rows[1].status == "optimal"


def test_emit_csv_and_read_back(tmp_path):
    cfg = _small_config(tmp_path)
    rows = run_sweep(cfg)
    emit_csv(rows, cfg.out_csv, cfg.dv_max)
    text = Path(cfg.out_csv).read_text()
    assert text.splitlines()[0] == \
        "alpha,solver,status,rate,gap,min_slack,iters,lambda_2,lambda_3,lambda_4"
    back = read_csv_rows(cfg.out_csv, cfg.epsilon)
    assert len(back) == len(rows)
    for a, b in zip(rows, back):
        assert b.rate == pytest.approx(a.rate, abs=1e-11)


def test_emit_csv_empty_rows(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], str(path), 4)
    lines = path.read_text().splitlines()
    assert len(lines) == 1


def test_csv_byte_determinism(tmp_path):
    cfg = _small_config(tmp_path)
    rows1 = run_sweep(cfg)
    emit_csv(rows1, cfg.out_csv, cfg.dv_max)
    first = Path(cfg.out_csv).read_bytes()
    rows2 = run_sweep(cfg)
    emit_csv(rows2, cfg.out_csv, cfg.dv_max)
    assert Path(cfg.out_csv).read_bytes() == first


# --- SVG ------------------------------------------------------------------


def _rows():
    return [
        SweepRow(alpha=0.4, solver="lp", status="optimal", rate=0.3,
                 gap=1.0 - 0.3 / 0.7, min_slack=0.01, iters=20,
                 lambdas=(1.0,)),
        SweepRow(alpha=0.8, solver="lp", status="optimal", rate=0.45,
                 gap=1.0 - 0.45 / 0.7, min_slack=0.02, iters=40,
                 lambdas=(1.0,)),
        SweepRow(alpha=0.4, solver="sdp", status="optimal", rate=0.29,
                 gap=1.0 - 0.29 / 0.7, min_slack=0.01, iters=20,
                 lambdas=(1.0,)),
    ]


def test_svg_well_formed_single_root(tmp_path):
    path = tmp_path / "plot.svg"
    emit_svg_plot(_rows(), "rate", str(path))
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    text = path.read_text()
    assert "polyline" in text
    assert "http" not in text.replace("http://www.w3.org/2000/svg", "")


def test_svg_one_polyline_per_solver(tmp_path):
    path = tmp_path / "plot.svg"
    emit_svg_plot(_rows(), "gap", str(path))
    assert path.read_text().count("<polyline") == 2


def test_svg_single_point(tmp_path):
    path = tmp_path / "one.svg"
    emit_svg_plot(_rows()[:1], "rate", str(path))
    ET.parse(path)  # must still be well-formed


def test_svg_no_plottable_rows(tmp_path):
    empty = [SweepRow(alpha=0.1, solver="lp", status="infeasible", rate=None,
                      gap=None, min_slack=None, iters=None, lambdas=())]
    with pytest.raises(NoPlottableRows):
        emit_svg_plot(empty, "rate", str(tmp_path / "x.svg"))


def test_svg_rejects_unknown_field(tmp_path):
    with pytest.raises(ValueError):
        emit_svg_plot(_rows(), "iters", str(tmp_path / "x.svg"))


# --- CLI entry point ------------------------------------------------------


def test_cli_optimize_ok(capsys):
    code = main(["optimize", "--rho", "x^3", "--epsilon", "0.3",
                 "--dv-max", "4", "--alpha", "1.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status = optimal (lp)" in out
    assert "rate = 0.5" in out


def test_cli_optimize_sdp(capsys):
    code = main(["optimize", "--solver", "sdp", "--rho", "x^3",
                 "--epsilon", "0.3", "--dv-max", "4", "--alpha", "1.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "status = optimal (sdp)" in out
    assert "reason" not in out


@pytest.mark.parametrize("command", ["optimize", "certify-sos"])
def test_cli_sdp_non_optimal_prints_its_reason(capsys, command):
    # 0.05 is below the feasibility floor: no solve, and the reason says so.
    extra = ["--solver", "sdp"] if command == "optimize" else []
    code = main([command, *extra, "--rho", "x^3", "--epsilon", "0.3",
                 "--dv-max", "6", "--alpha", "0.05"])
    assert code == 1
    assert capsys.readouterr().out == "status = infeasible\nreason = below-floor\n"


def test_cli_optimize_infeasible():
    code = main(["optimize", "--rho", "x^3", "--epsilon", "0.3",
                 "--dv-max", "6", "--alpha", "0.05"])
    assert code == 1


def test_cli_bad_flag_exits_2(capsys):
    assert main(["optimize", "--nonsense"]) == 2


def test_cli_missing_values_exit_2(capsys):
    assert main(["optimize", "--rho", "x^3"]) == 2


def test_cli_bad_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("rho = x^3\nepsilon = nope\ndv_max = 6\n")
    assert main(["sweep", str(cfg)]) == 2
    assert main(["sweep", str(tmp_path / "missing.cfg")]) == 2


def test_cli_sweep_writes_outputs(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("rho = x^3\nepsilon = 0.3\ndv_max = 4\n"
                   "alpha = 0.5,1.0\nsolver = lp\n"
                   f"out_csv = {tmp_path}/out.csv\n"
                   f"out_svg = {tmp_path}/out.svg\n")
    code = main(["sweep", str(cfg)])
    assert code == 0
    assert (tmp_path / "out.csv").exists()
    assert (tmp_path / "out.svg").exists()
    assert (tmp_path / "out_gap.svg").exists()
    ET.parse(tmp_path / "out.svg")
    ET.parse(tmp_path / "out_gap.svg")


def test_cli_simulate(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["simulate", "--lambda", "x^2", "--rho", "x^5",
                 "--epsilon", "0.4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "iteration,y"
    assert float(lines[1].split(",")[1]) == pytest.approx(0.4)


def test_cli_simulate_nonconvergent():
    code = main(["simulate", "--lambda", "x^2", "--rho", "x^5",
                 "--epsilon", "0.5"])
    assert code == 1


def test_cli_threshold(capsys):
    code = main(["threshold", "--lambda", "x^2", "--rho", "x^5"])
    assert code == 0
    out = capsys.readouterr().out
    value = float(out.splitlines()[0].split("=")[1])
    assert 0.4284 <= value <= 0.4304


def test_cli_verify_feasible(capsys):
    code = main(["verify", "--lambda", "2:1.0", "--rho", "x^3",
                 "--epsilon", "0.3", "--alpha", "1.0"])
    assert code == 0
    assert "feasible = True" in capsys.readouterr().out


def test_cli_verify_infeasible(capsys):
    code = main(["verify", "--lambda", "6:1.0", "--rho", "x^3",
                 "--epsilon", "0.3", "--alpha", "0.1"])
    assert code == 1


def test_cli_certify_sos(capsys):
    code = main(["certify-sos", "--rho", "x^3", "--epsilon", "0.3",
                 "--dv-max", "6", "--alpha", "0.5"])
    assert code == 0
    assert "certificate_valid = True" in capsys.readouterr().out


def test_cli_certify_sos_refuses_degree_beyond_float64_at_once(capsys):
    # rho = x^10 and d_v = 105 give a slack of degree 1039, whose scaled
    # Bernstein coefficients overflow float64: refused before any table of
    # that size is built.
    start = time.perf_counter()
    code = main(["certify-sos", "--rho", "x^10", "--epsilon", "0.3",
                 "--dv-max", "105", "--alpha", "1.0"])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert "too high for float64" in capsys.readouterr().err
    assert elapsed < 2.0


def test_cli_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("rho = x^3\nepsilon = 0.3\ndv_max = 4\nalpha = 1.0\n")
    code = main(["optimize", "--config", str(cfg)])
    assert code == 0
    assert "rate = 0.5" in capsys.readouterr().out
