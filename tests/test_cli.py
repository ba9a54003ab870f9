"""Command line artifacts, determinism, config handling, exit codes."""

import ast
import csv
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import stefanflux
from stefanflux.cli import main


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_artifacts(tmp_path, capsys):
    code, out, _ = _run(capsys, "solve", "--out", str(tmp_path))
    assert code == 0
    assert out.startswith("solve ok:")
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["problem"] == "example1"
    assert report["order"] == 12
    assert len(report["coefficients"]) == 13
    assert report["delta_p"] <= 1e-5
    assert report["scheme"] == {"n_dirichlet": 6, "n_stefan": 5, "n_initial": 2,
                                "quadrature_order": 16}
    header, rows = _read_csv(tmp_path / "flux_curve.csv")
    assert header == ["t", "ux0_reconstructed", "ux0_exact", "abs_error"]
    assert len(rows) == 101
    assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 1.0


def test_solve_sample_count_flag(tmp_path, capsys):
    code, _, _ = _run(capsys, "solve", "--samples", "17", "--out", str(tmp_path))
    assert code == 0
    _, rows = _read_csv(tmp_path / "flux_curve.csv")
    assert len(rows) == 17


def test_noisy_solve_reruns_are_byte_identical(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        code, _, _ = _run(capsys, "solve", "--noise", "0.01", "--seed", "7",
                          "--beta", "1e-5", "--out", str(d))
        assert code == 0
    assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
    assert (d1 / "flux_curve.csv").read_bytes() == (d2 / "flux_curve.csv").read_bytes()
    # And the noise actually perturbed the result.
    clean = tmp_path / "clean"
    _run(capsys, "solve", "--beta", "1e-5", "--out", str(clean))
    assert (clean / "report.json").read_bytes() != (d1 / "report.json").read_bytes()


def test_minimal_order_with_explicit_scheme(tmp_path, capsys):
    code, _, _ = _run(capsys, "solve", "--order", "3", "--scheme", "2,1,1",
                      "--out", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["coefficients"]) == 4


def test_single_cell_sweep_matches_solve(tmp_path, capsys):
    sd = tmp_path / "solve"
    wd = tmp_path / "sweep"
    assert _run(capsys, "solve", "--out", str(sd))[0] == 0
    assert _run(capsys, "sweep", "--out", str(wd))[0] == 0
    report = json.loads((sd / "report.json").read_text())
    header, rows = _read_csv(wd / "sweep.csv")
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert float(row["delta_p_median"]) == report["delta_p"]
    assert float(row["delta_u_median"]) == report["delta_u"]
    assert float(row["cond"]) == report["condition_number"]
    assert row["benchmark"] == "example1"
    assert int(row["failures"]) == 0


def test_sweep_grid_artifacts(tmp_path, capsys):
    code, out, _ = _run(capsys, "sweep", "--orders", "4,6,8,10,12", "--betas", "0",
                        "--out", str(tmp_path))
    assert code == 0
    assert "sweep ok: 5 cells, 0 failures" in out
    header, rows = _read_csv(tmp_path / "sweep.csv")
    conds = [float(dict(zip(header, r))["cond"]) for r in rows]
    assert conds == sorted(conds)
    assert all(a < b for a, b in zip(conds, conds[1:]))

    pivot_header, pivot_rows = _read_csv(tmp_path / "table1_style.csv")
    assert pivot_header == ["beta", "N=4", "N=6", "N=8", "N=10", "N=12"]
    assert len(pivot_rows) == 1
    assert float(pivot_rows[0][0]) == 0.0
    # Pivot cells mirror the sweep rows.
    by_order = {int(dict(zip(header, r))["N"]): float(dict(zip(header, r))["delta_p_median"])
                for r in rows}
    for idx, order in enumerate((4, 6, 8, 10, 12)):
        assert float(pivot_rows[0][idx + 1]) == by_order[order]


def test_sweep_worker_count_does_not_change_bytes(tmp_path, capsys):
    d1, d2 = tmp_path / "serial", tmp_path / "pool"
    argv = ["sweep", "--orders", "4,6", "--betas", "0,1e-6", "--noise", "0,0.01",
            "--seeds", "0,1"]
    assert _run(capsys, *argv, "--out", str(d1))[0] == 0
    assert _run(capsys, *argv, "--jobs", "2", "--out", str(d2))[0] == 0
    assert (d1 / "sweep.csv").read_bytes() == (d2 / "sweep.csv").read_bytes()
    assert (d1 / "table1_style.csv").read_bytes() == (d2 / "table1_style.csv").read_bytes()


def test_plotdata_artifacts(tmp_path, capsys):
    code, out, _ = _run(capsys, "plotdata", "--noise", "0.01,0.03,0.05",
                        "--samples", "51", "--out", str(tmp_path))
    assert code == 0
    assert "3 level(s) x 51 samples" in out
    for token in ("0.01", "0.03", "0.05"):
        header, rows = _read_csv(tmp_path / f"flux_eps_{token}.csv")
        assert header == ["t", "ux0_reconstructed", "ux0_exact"]
        assert len(rows) == 51
        ts = [float(r[0]) for r in rows]
        assert ts == sorted(ts)
        err_header, err_rows = _read_csv(tmp_path / f"abs_error_eps_{token}.csv")
        assert err_header == ["t", "abs_error"]
        assert len(err_rows) == 51


def test_plotdata_clean_series_error_scale(tmp_path, capsys):
    code, _, _ = _run(capsys, "plotdata", "--noise", "0", "--out", str(tmp_path))
    assert code == 0
    _, rows = _read_csv(tmp_path / "abs_error_eps_0.csv")
    assert len(rows) == 101
    assert max(float(r[1]) for r in rows) <= 2e-6


def test_csv_floats_roundtrip():
    # 17 significant digits round-trip float64 exactly.
    from stefanflux.cli import _fmt

    for value in (1 / 3, 2.718281828459045e-7, 123456.789, 5e-324):
        assert float(_fmt(value)) == value
    assert _fmt(12) == "12"


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# reconstruction setup\n"
        "\n"
        "order = 8\n"
        "beta = 1e-6   # damping\n"
        "benchmark = example2\n")
    d1 = tmp_path / "from_config"
    code, _, _ = _run(capsys, "solve", "--config", str(cfg), "--out", str(d1))
    assert code == 0
    report = json.loads((d1 / "report.json").read_text())
    assert report["order"] == 8
    assert report["beta"] == 1e-6
    assert report["problem"] == "example2"

    d2 = tmp_path / "overridden"
    code, _, _ = _run(capsys, "solve", "--config", str(cfg), "--order", "10",
                      "--out", str(d2))
    assert code == 0
    assert json.loads((d2 / "report.json").read_text())["order"] == 10


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("order = 8\nwavelength = 3\n")
    code, _, err = _run(capsys, "solve", "--config", str(bad))
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "config_error"
    assert "unknown key" in payload["message"]
    assert f"{bad}:2" in payload["message"]

    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("order 8\n")
    assert _run(capsys, "solve", "--config", str(malformed))[0] == 2

    badval = tmp_path / "badval.cfg"
    badval.write_text("order = eight\n")
    assert _run(capsys, "solve", "--config", str(badval))[0] == 2


def test_flag_errors_exit_2(tmp_path, capsys):
    out = str(tmp_path)
    assert _run(capsys, "solve", "--scheme", "1,2", "--out", out)[0] == 2
    assert _run(capsys, "solve", "--scheme", "2,3,1", "--out", out)[0] == 2
    assert _run(capsys, "solve", "--order", "2", "--out", out)[0] == 2
    assert _run(capsys, "solve", "--noise", "0.01,0.05", "--out", out)[0] == 2
    assert _run(capsys, "solve", "--beta", "-1e-3", "--out", out)[0] == 2
    cfg = tmp_path / "both.cfg"
    cfg.write_text("family = linear\np0 = 0.4\np1 = 0.7\n")
    assert _run(capsys, "solve", "--config", str(cfg), "--benchmark", "example1",
                "--out", out)[0] == 2
    assert _run(capsys, "sweep", "--config", str(cfg), "--out", out)[0] == 2
    incomplete = tmp_path / "incomplete.cfg"
    incomplete.write_text("family = linear\n")
    assert _run(capsys, "solve", "--config", str(incomplete), "--out", out)[0] == 2
    unknown = tmp_path / "unknown_family.cfg"
    unknown.write_text("family = cubic\n")
    assert _run(capsys, "solve", "--config", str(unknown), "--out", out)[0] == 2


def test_bad_noise_level_exits_2_before_writing(tmp_path, capsys):
    # Validation runs before the output directory is created.
    bad = (["solve", "--noise", "-1"], ["plotdata", "--noise", "0,-1"],
           ["solve", "--beta", "-1"], ["plotdata", "--beta", "-1"],
           ["sweep", "--betas", "-1"], ["sweep", "--orders", "1"],
           ["sweep", "--orders", "8", "--noise", "nan"], ["sweep", "--betas", "nan"],
           ["sweep", "--orders", "8", "--jobs", "0"], ["sweep", "--orders", "8", "--jobs", "-1"],
           ["solve", "--seed", "-1"], ["solve", "--noise", "0.01", "--seed", str(2 ** 64)],
           ["plotdata", "--noise", "0.01", "--seed", "-1"],
           ["sweep", "--orders", "8", "--noise", "0.01", "--seeds", "0,-1"],
           ["solve", "--samples", "1"], ["plotdata", "--samples", "1"],
           ["solve", "--order", "12", "--scheme", "6,5,1"])
    for i, argv in enumerate(bad):
        out = tmp_path / f"out{i}"
        code, _, err = _run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert json.loads(err.strip().splitlines()[-1])["error"] == "config_error"
        assert not out.exists()
    # A config file can name a noise mode the --noise-mode flag would refuse.
    cfg = tmp_path / "bogus_mode.cfg"
    cfg.write_text("noise_mode = bogus\nnoise = 0,0.01\norder = 6\n")
    out = tmp_path / "out_mode"
    code, _, err = _run(capsys, "sweep", "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["error"] == "config_error"
    assert not out.exists()


def test_custom_family_solve(tmp_path, capsys):
    cfg = tmp_path / "linear.cfg"
    cfg.write_text("family = linear\np0 = 0.4\np1 = 0.7\n")
    code, _, _ = _run(capsys, "solve", "--config", str(cfg), "--order", "8",
                      "--out", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["problem"] == "linear"
    assert report["delta_p"] <= 1e-3


def test_numerical_failure_exits_3(tmp_path, capsys):
    # An overflowing amplitude makes the initial data non-finite; the solver
    # front end reports it as a numerical failure rather than crashing.
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("family = sqrt\nalpha = 30\nt0 = 0.01\n")
    code, _, err = _run(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 3
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "numerical_error"


def test_argparse_paths(capsys):
    assert main([]) == 2
    assert main(["--help"]) == 0
    assert main(["solve", "--help"]) == 0
    assert main(["solve", "--benchmark", "example9"]) == 2
    capsys.readouterr()


def _fresh_process_json(script):
    """Run script in a fresh interpreter on this checkout; its last line as JSON."""
    src = str(Path(stefanflux.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_start_up_imports_no_scipy_linalg():
    # scipy.linalg costs about 0.3 s of every CLI process and scipy.special
    # about 0.2 s; the package needs numpy alone, erf included.
    loaded = _fresh_process_json("""
        import json, sys
        import stefanflux.cli
        from stefanflux import example1, example2, run_case
        run_case(example1(), 8)
        before = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
        run_case(example2(), 8)
        after = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
        print(json.dumps({"before": before, "linalg": "scipy.linalg" in sys.modules,
                          "after": after}))
    """)
    assert loaded == {"before": [], "linalg": False, "after": []}


def test_serial_sweep_does_not_import_the_process_pool():
    loaded = _fresh_process_json("""
        import json, sys
        import stefanflux.cli
        from stefanflux import SweepGrid, run_sweep
        records = run_sweep(SweepGrid(orders=(4,))).records
        print(json.dumps({"cells": len(records),
                          "pool": "concurrent.futures.process" in sys.modules}))
    """)
    assert loaded == {"cells": 1, "pool": False}


def test_package_source_imports_no_scipy():
    # numpy is the only runtime dependency; scipy serves the benchmark harness alone.
    package = Path(stefanflux.__file__).resolve().parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.relative_to(package)}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] == "scipy"]
    assert offenders == []
