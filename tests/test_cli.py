"""Command line artifacts, determinism, config handling, exit codes."""

import ast
import csv
import importlib
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


def test_solve_writes_one_report_per_noise_level(tmp_path, capsys):
    levels = ("0.01", "0.03", "0.05")
    code, out, _ = _run(capsys, "solve", "--noise", ",".join(levels),
                        "--samples", "51", "--out", str(tmp_path / "all"))
    assert code == 0
    assert len(out.splitlines()) == 3
    for level, line in zip(levels, out.splitlines()):
        header, rows = _read_csv(tmp_path / "all" / f"flux_curve_eps_{level}.csv")
        assert header == ["t", "ux0_reconstructed", "ux0_exact", "abs_error"]
        assert len(rows) == 51
        ts = [float(r[0]) for r in rows]
        assert ts == sorted(ts)
        # Each level's files and stdout line are the ones a single-level solve writes.
        one = tmp_path / level
        assert _run(capsys, "solve", "--noise", level, "--samples", "51",
                    "--out", str(one))[:2] == (0, line + "\n")
        for tagged, plain in ((f"report_eps_{level}.json", "report.json"),
                              (f"flux_curve_eps_{level}.csv", "flux_curve.csv")):
            assert (tmp_path / "all" / tagged).read_bytes() == (one / plain).read_bytes()


def test_solve_clean_series_error_scale(tmp_path, capsys):
    code, _, _ = _run(capsys, "solve", "--noise", "0", "--out", str(tmp_path))
    assert code == 0
    header, rows = _read_csv(tmp_path / "flux_curve.csv")
    assert len(rows) == 101
    assert max(float(r[header.index("abs_error")]) for r in rows) <= 2e-6


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
    assert _run(capsys, "solve", "--noise", "", "--out", out)[0] == 2
    assert _run(capsys, "solve", "--beta", "-1e-3", "--out", out)[0] == 2
    cfg = tmp_path / "both.cfg"
    cfg.write_text("family = linear\np0 = 0.4\np1 = 0.7\n")
    assert _run(capsys, "solve", "--config", str(cfg), "--benchmark", "example1",
                "--out", out)[0] == 2
    assert _run(capsys, "sweep", "--config", str(cfg), "--benchmark", "example1",
                "--out", out)[0] == 2
    # Only solve draws a flux curve; sweep used to accept --samples and ignore it.
    assert _run(capsys, "sweep", "--orders", "8", "--samples", "5", "--out", out)[0] == 2
    # A missing family parameter is named; it used to get float()'s message about None.
    incomplete = tmp_path / "incomplete.cfg"
    for text, message in (("family = linear\n",
                           "the linear family needs p0 and p1; missing p0 and p1"),
                          ("family = sqrt\nalpha = 0.6\n",
                           "the sqrt family needs alpha and t0; missing t0")):
        incomplete.write_text(text)
        code, _, err = _run(capsys, "solve", "--config", str(incomplete), "--out", out)
        error = json.loads(err.strip().splitlines()[-1])
        assert (code, error["error"], error["message"]) == (2, "config_error", message)
    unknown = tmp_path / "unknown_family.cfg"
    unknown.write_text("family = cubic\n")
    assert _run(capsys, "solve", "--config", str(unknown), "--out", out)[0] == 2
    # A config file's unknown preset used to get the Enum's "is not a valid BenchmarkId".
    unknown.write_text("benchmark = example3\n")
    code, _, err = _run(capsys, "solve", "--config", str(unknown), "--out", out)
    error = json.loads(err.strip().splitlines()[-1])
    assert (code, error["error"], error["message"]) == (
        2, "config_error", "benchmark must be 'example1' or 'example2', got 'example3'")
    # A zero material parameter used to divide before it was checked.
    for family in ("family = linear\np0 = 0.4\np1 = 0.7\n",
                   "family = sqrt\nalpha = 0.6\nt0 = 0.16\n"):
        for key in ("diffusivity", "conductivity"):
            zero = tmp_path / "zero.cfg"
            zero.write_text(f"{family}{key} = 0\n")
            code, _, err = _run(capsys, "solve", "--config", str(zero), "--out", out)
            assert code == 2
            assert json.loads(err.strip().splitlines()[-1])["error"] == "config_error"


def test_bad_noise_level_exits_2_before_writing(tmp_path, capsys, monkeypatch):
    # Validation runs before the output directory is created.
    bad = (["solve", "--noise", "-1"], ["solve", "--noise", "0,-1"],
           ["solve", "--beta", "-1"],
           ["sweep", "--betas", "-1"], ["sweep", "--orders", "1"],
           ["sweep", "--orders", "8", "--noise", "nan"], ["sweep", "--betas", "nan"],
           ["sweep", "--orders", "8", "--jobs", "0"], ["sweep", "--orders", "8", "--jobs", "-1"],
           ["sweep", "--orders", "8", "--jobs", "1" + "0" * 400],
           ["solve", "--order", "1" + "0" * 400], ["sweep", "--orders", "1" + "0" * 400],
           ["solve", "--seed", "-1"], ["solve", "--noise", "0.01", "--seed", str(2 ** 64)],
           ["solve", "--noise", "0.01", "--seed", "-1"],
           ["sweep", "--orders", "8", "--noise", "0.01", "--seeds", "0,-1"],
           ["solve", "--samples", "1"],
           ["solve", "--order", "12", "--scheme", "6,5,1"],
           ["solve", "--config", str(tmp_path / "missing.cfg")],
           ["solve", "--noise", "0.01,0.010000001"], ["solve", "--noise", "0,0.01,0"],
           ["sweep", "--orders", "8", "--quad", "5"],
           # Bounded before anything is allocated; these used to exit 1 with a MemoryError.
           ["solve", "--quad", "1000000"], ["sweep", "--orders", "8", "--quad", "1000000"],
           ["solve", "--samples", "1000000000000"], ["solve", "--order", "100000"],
           ["sweep", "--orders", "8,100000"],
           # A repeated axis value used to run its cells twice.
           ["sweep", "--orders", "8,8"], ["sweep", "--orders", "8", "--seeds", "3,3"],
           ["sweep", "--orders", "8", "--horizons", "1,1"])
    for i, argv in enumerate(bad):
        out = tmp_path / f"out{i}"
        code, _, err = _run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert json.loads(err.strip().splitlines()[-1])["error"] == "config_error"
        assert not out.exists()
    # A config file can name a noise mode the --noise-mode flag would refuse.
    cfg = tmp_path / "bogus_mode.cfg"
    cfg.write_text("noise_mode = bogus\nnoise = 0,0.01\norder = 6\n")
    for argv in (["sweep"], ["solve", "--noise", "0"]):
        out = tmp_path / "out_mode"
        code, _, err = _run(capsys, *argv, "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert json.loads(err.strip().splitlines()[-1])["error"] == "config_error"
        assert not out.exists()
    # A file at --out, or in its path, is refused before any case runs.
    def no_case(*args, **kwargs):
        raise AssertionError("a case ran")
    monkeypatch.setattr("stefanflux.cli.run_case", no_case)
    monkeypatch.setattr("stefanflux.cli.run_sweep", no_case)
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    for out in (blocker, blocker / "sub"):
        for command in ("solve", "sweep"):
            code, _, err = _run(capsys, command, "--order", "6", "--out", str(out))
            assert code == 2
            assert json.loads(err.strip().splitlines()[-1])["error"] == "config_error"
    assert blocker.read_text() == "kept\n"


def test_family_sweep(tmp_path, capsys):
    # A sweep runs a config file's family as it runs a benchmark, one problem per
    # horizon, and its artifacts are byte-identical across reruns.
    cfg = tmp_path / "linear.cfg"
    cfg.write_text("family = linear\np0 = 0.4\np1 = 0.7\n")
    argv = ["sweep", "--config", str(cfg), "--orders", "6,8,10", "--betas", "0,1e-7",
            "--horizons", "1,2"]
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        code, printed, _ = _run(capsys, *argv, "--out", str(out))
        assert (code, printed.strip()) == (0, "sweep ok: 12 cells, 0 failures")
    header, rows = _read_csv(runs[0] / "sweep.csv")
    assert {dict(zip(header, row))["benchmark"] for row in rows} == {"linear"}
    assert {dict(zip(header, row))["T"] for row in rows} == {"1", "2"}
    for name in ("sweep.csv", "table1_style.csv"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


def test_family_sweep_errors_exit_2_before_writing(tmp_path, capsys):
    # A family that cannot be built at one of the grid's horizons fails the sweep
    # as a configuration error, and a horizon the grid refuses keeps its message.
    cfg = tmp_path / "falling.cfg"
    cfg.write_text("family = linear\np0 = 0.4\np1 = -0.7\n")
    for horizons, message in (("0.5,1", "boundary must stay positive over the horizon"),
                              ("0.5,-1", "horizons must be finite and > 0, got -1.0")):
        out = tmp_path / "out"
        code, _, err = _run(capsys, "sweep", "--config", str(cfg), "--orders", "6",
                            "--horizons", horizons, "--out", str(out))
        error = json.loads(err.strip().splitlines()[-1])
        assert (code, error["error"]) == (2, "config_error")
        assert message in error["message"]
        assert not out.exists()


def test_family_whose_boundary_starts_at_zero_exits_2(tmp_path, capsys):
    # s(0) = 2 alpha sqrt(t0) underflows to 0 although s(horizon) > 0.
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("family = sqrt\nalpha = 5e-324\nt0 = 1e-300\n")
    out = tmp_path / "out"
    code, _, err = _run(capsys, "solve", "--config", str(cfg), "--order", "8", "--out", str(out))
    error = json.loads(err.strip().splitlines()[-1])
    assert (code, error["error"]) == (2, "config_error")
    assert error["message"] == ("bad sqrt family parameters: boundary s(t) must stay positive "
                                "and finite on [0, horizon]")
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
    # At N=32 the smallest scaled singular value of example1's matrix, 7.8e-16, is 13x below
    # PIVOT_RTOL; the rank it reports has only a 2x margin, so it is not asserted.
    code, _, err = _run(capsys, "solve", "--order", "32", "--out", str(tmp_path / "n32"))
    assert code == 3
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "singular_matrix"
    assert payload["message"].startswith("matrix is numerically singular at pivot ")


def test_argparse_paths(capsys):
    assert main([]) == 2
    assert main(["--help"]) == 0
    assert main(["solve", "--help"]) == 0
    assert main(["solve", "--benchmark", "example9"]) == 2
    assert main(["plotdata"]) == 2  # folded into solve --noise with a list of levels
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


def test_serial_sweep_does_not_import_the_process_pool(tmp_path):
    # Every sweep runs in process, so no jobs value loads the process pool:
    # not a serial run, nor jobs=2 on four groups, nor the CLI at --jobs 2.
    loaded = _fresh_process_json(f"""
        import json, sys
        from stefanflux.cli import main
        from stefanflux import SweepGrid, run_sweep
        runs = []
        def record(cells):
            runs.append([cells, "concurrent.futures.process" in sys.modules])
        record(len(run_sweep(SweepGrid(orders=(4,))).records))
        grid = SweepGrid(orders=(4, 6), horizons=(1.0, 2.0))
        record(len(run_sweep(grid, jobs=2).records))
        record(main(["sweep", "--orders", "4,6", "--horizons", "1,2", "--jobs", "2",
                     "--out", {str(tmp_path / "sweep")!r}]))
        print(json.dumps(runs))
    """)
    assert loaded == [[1, False], [4, False], [0, False]]


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


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "1.72e-07 3.69e-08\n"


def test_readme_command_line_examples_run(tmp_path, capsys, monkeypatch):
    # The README's run.cfg and each of its command lines, run through main in one directory.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    (tmp_path / "run.cfg").write_text(section.split("```ini\n", 1)[1].split("```", 1)[0])
    script = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands = [line.split()[3:] for line in script.splitlines()
                if line.startswith("python3 -m stefanflux ")]
    assert [argv[0] for argv in commands] == ["solve", "solve", "sweep", "sweep", "solve"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()
    written = ["run1/report.json", "run1/flux_curve.csv", "report.json", "flux_curve.csv",
               "sweep.csv", "table1_style.csv", "linear_sweep/sweep.csv",
               "linear_sweep/table1_style.csv"]
    written += [name for level in ("0", "0.01", "0.05")
                for name in (f"report_eps_{level}.json", f"flux_curve_eps_{level}.csv")]
    assert [name for name in written if not (tmp_path / name).is_file()] == []


def test_public_names_resolve_once():
    package = Path(stefanflux.__file__).parent
    modules = [stefanflux] + [importlib.import_module(f"stefanflux.{path.stem}")
                              for path in sorted(package.glob("*.py"))
                              if path.stem not in ("__init__", "__main__")]
    checked = 0
    for module in modules:
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        checked += 1
        assert len(names) == len(set(names)), module.__name__
        assert [name for name in names if not hasattr(module, name)] == [], module.__name__
    assert checked >= 9
    # The README's noisy pipeline is public on its module.
    assert {"NoiseSpec", "standard_draws", "scale_draws"} <= set(stefanflux.noise.__all__)
