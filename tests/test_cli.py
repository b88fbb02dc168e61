import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

import mitoclock as mc
from mitoclock.checks import SUITES
from mitoclock.cli import build_parser, main
from mitoclock.io import write_columns


FITTED_MODEL = {"family": "erfc-mu", "beta0": 0.17879, "m": 25.007, "sigma": 3.6141, "mu": 0.00333}


@pytest.fixture()
def model_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(FITTED_MODEL))
    return path


def test_fit_growth_on_shipped_data(tmp_path, data_dir, capsys):
    prefix = tmp_path / "growth"
    code = main(
        ["fit-growth", str(data_dir / "growth_curve.csv"), "--out-prefix", str(prefix)]
    )
    assert code == 0
    payload = json.loads((tmp_path / "growth.json").read_text())
    assert payload["lambda"] == pytest.approx(0.022, abs=1e-3)
    assert payload["r_squared"] == pytest.approx(0.9967, abs=2e-3)
    line = np.loadtxt(tmp_path / "growth_line.csv", delimiter=",", skiprows=1)
    assert line.shape[1] == 3
    assert "lambda=" in capsys.readouterr().out


def test_fit_growth_window_flag(tmp_path, data_dir):
    prefix = tmp_path / "w"
    code = main(
        [
            "fit-growth",
            str(data_dir / "growth_curve.csv"),
            "--window", "0", "50",
            "--out-prefix", str(prefix),
        ]
    )
    assert code == 0
    line = np.loadtxt(tmp_path / "w_line.csv", delimiter=",", skiprows=1)
    assert line[:, 0].max() <= 50.0


def test_fit_growth_too_few_points(tmp_path, capsys):
    path = tmp_path / "two.csv"
    path.write_text("t,N\n0,100\n10,150\n")
    assert main(["fit-growth", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_fit_imt_on_shipped_data(tmp_path, data_dir, capsys):
    prefix = tmp_path / "fit"
    code = main(
        [
            "fit-imt", str(data_dir / "imt_histogram.csv"),
            "--dt", "1.25", "--lambda", "0.022", "--family", "erfc",
            "--seed", "0", "--out-prefix", str(prefix),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "fit.json").read_text())
    assert payload["model"]["family"] == "erfc"
    assert payload["model"]["beta0"] == pytest.approx(0.14204, rel=0.10)
    curve = np.loadtxt(tmp_path / "fit_curve.csv", delimiter=",", skiprows=1)
    assert curve.shape == (63, 3)
    assert "mass-ok" in capsys.readouterr().out


def test_fit_imt_zero_lambda_path(tmp_path, data_dir):
    prefix = tmp_path / "fit0"
    code = main(
        [
            "fit-imt", str(data_dir / "imt_histogram.csv"),
            "--dt", "1.25", "--lambda", "0", "--family", "erfc",
            "--seed", "0", "--out-prefix", str(prefix),
        ]
    )
    assert code == 0  # documented x2 mass convention; fit still runs


def test_fit_imt_unknown_family_is_usage_error(data_dir):
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "fit-imt", str(data_dir / "imt_histogram.csv"),
                "--dt", "1.25", "--lambda", "0.022", "--family", "gauss",
            ]
        )
    assert excinfo.value.code == 2


@pytest.mark.parametrize("flags, env, name", [(["--seed", "-1"], None, "seed"),
                                              ([], "abc", "MITOCLOCK_SEED")])
def test_fit_imt_bad_seed_is_usage_error(data_dir, monkeypatch, capsys, flags, env, name):
    if env is not None:
        monkeypatch.setenv("MITOCLOCK_SEED", env)
    code = main(["fit-imt", str(data_dir / "imt_histogram.csv"), "--dt", "1.25",
                 "--lambda", "0.022", "--family", "erfc", *flags])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {name} must be a nonnegative integer")


def test_fit_imt_family_choices_are_the_model_families():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    family = next(a for a in commands.choices["fit-imt"]._actions if a.dest == "family")
    assert tuple(family.choices) == mc.FAMILIES


def test_verify_suite_choices_are_the_suite_table():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in commands.choices["verify"]._actions if a.dest == "suite")
    assert list(suite.choices) == list(SUITES)


def test_invert_round_trip(tmp_path, capsys):
    model = mc.Model(family="gamma1", m=17.0, sigma=2.0)
    ages = np.arange(0.0, 60.001, 0.01)
    dens = np.asarray(mc.imt_density(model, ages))
    src = tmp_path / "imt.csv"
    src.write_text(
        "age,I\n" + "\n".join(f"{float(a)!r},{float(d)!r}" for a, d in zip(ages, dens)) + "\n"
    )
    code = main(["invert", str(src), "--out-prefix", str(tmp_path / "inv")])
    assert code == 0
    table = np.loadtxt(tmp_path / "inv_beta.csv", delimiter=",", skiprows=1)
    exact = np.asarray(mc.division_rate(model, table[:, 0]))
    assert np.abs(table[:, 1] - exact).max() < 1e-3
    summary = json.loads((tmp_path / "inv_erfc.json").read_text())
    assert 0.9 < summary["r_squared"] < 1.0
    assert "best erfc" in capsys.readouterr().out


def test_invert_emg_reports_erfc_agreement(tmp_path, capsys):
    model = mc.Model(family="emg", beta0=0.2, m=22.0, sigma=2.0)
    ages = np.arange(0.0, 60.001, 0.01)
    dens = np.asarray(mc.imt_density(model, ages))
    src = tmp_path / "emg.csv"
    src.write_text("\n".join(f"{float(a)!r},{float(d)!r}" for a, d in zip(ages, dens)) + "\n")
    assert main(["invert", str(src), "--out-prefix", str(tmp_path / "emg_out")]) == 0
    summary = json.loads((tmp_path / "emg_out_erfc.json").read_text())
    assert summary["r_squared"] >= 0.9999
    # the TruncationWarning reaches the user as one line, without source location
    err = capsys.readouterr().err
    assert err.startswith("warning: division rate truncated to ages <=")
    assert err.count("\n") == 1 and "cli.py" not in err


@pytest.mark.parametrize("bad_row", ["60.0,nan", "nan,0.0", "inf,0.0"])
def test_invert_non_finite_cell_is_usage_error(tmp_path, capsys, bad_row):
    model = mc.Model(family="gamma1", m=17.0, sigma=2.0)
    ages = np.arange(0.0, 60.0, 0.01)
    dens = np.asarray(mc.imt_density(model, ages))
    src = tmp_path / "imt.csv"
    rows = [f"{float(a)!r},{float(d)!r}" for a, d in zip(ages, dens)]
    src.write_text("age,I\n" + "\n".join(rows) + f"\n{bad_row}\n")
    assert main(["invert", str(src), "--out-prefix", str(tmp_path / "inv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {len(rows) + 2}: non-finite") and "Traceback" not in err
    assert not (tmp_path / "inv_beta.csv").exists()


def test_simulate_dose_sweep(tmp_path, model_json, capsys):
    prefix = tmp_path / "sweep"
    code = main(
        [
            "simulate", str(model_json),
            "--f", "0", "0.6", "0.84",
            "--t-end", "30", "--dt", "0.1",
            "--out-prefix", str(prefix),
        ]
    )
    assert code == 0
    for f in ("0", "0.6", "0.84"):
        series = np.loadtxt(tmp_path / f"sweep_f{f}.csv", delimiter=",", skiprows=1)
        assert series.shape[0] == 301
        assert (tmp_path / f"sweep_f{f}_profile.csv").exists()
    svg_text = (tmp_path / "sweep_dose_sweep.svg").read_text()
    assert svg_text.startswith("<svg") and "polyline" in svg_text
    assert "f=0.84" in capsys.readouterr().out


def test_simulate_rejects_bad_fraction(tmp_path, model_json, capsys):
    code = main(
        ["simulate", str(model_json), "--f", "2", "--t-end", "10",
         "--out-prefix", str(tmp_path / "bad")]
    )
    assert code == 2
    assert "f must be in [0, 1]" in capsys.readouterr().err


def test_simulate_rejects_quiescent_loss_above_one_per_step(tmp_path, model_json, capsys):
    code = main(["simulate", str(model_json), "--f", "0.6", "--t-end", "10", "--mu-q", "100",
                 "--out-prefix", str(tmp_path / "x")])
    assert code == 2
    assert "dt * mu_q = 5 > 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "numbers",
    [["--t-end", "nan"], ["--t-end", "inf"], ["--t-end", "10", "--dt", "nan"],
     ["--t-end", "10", "--mu-q", "inf"]],
    ids=["t-end-nan", "t-end-inf", "dt-nan", "mu-q-inf"],
)
def test_simulate_rejects_non_finite_numbers(tmp_path, model_json, capsys, numbers):
    code = main(
        ["simulate", str(model_json), "--f", "0.6", *numbers, "--out-prefix", str(tmp_path / "x")]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "text",
    ['{"family": "erfc-mu", "beta0": 0.17', json.dumps(dict(FITTED_MODEL, m="x")), "[1, 2]"],
    ids=["truncated-json", "text-field", "not-an-object"],
)
@pytest.mark.parametrize(
    "command",
    [["simulate", "--f", "0", "--t-end", "10"], ["verify", "--suite", "eigen"]],
    ids=["simulate", "verify"],
)
def test_malformed_model_file_is_usage_error(tmp_path, capsys, text, command):
    path = tmp_path / "model.json"
    path.write_text(text)
    args = [command[0], str(path), *command[1:]]
    if command[0] == "simulate":
        args += ["--out-prefix", str(tmp_path / "x")]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("encoding", ["utf-16", "latin-1"])
@pytest.mark.parametrize(
    "command",
    [["simulate", "--f", "0", "--t-end", "10"], ["verify", "--suite", "eigen"]],
    ids=["simulate", "verify"],
)
def test_model_file_that_is_not_utf8_is_usage_error(tmp_path, capsys, encoding, command):
    # json.loads would take UTF-16 bytes; a model file is read as UTF-8 only
    path = tmp_path / "model.json"
    text = json.dumps(dict(FITTED_MODEL, note="\u00e9"), ensure_ascii=False)
    path.write_bytes(text.encode(encoding))
    args = [command[0], str(path), *command[1:]]
    if command[0] == "simulate":
        args += ["--out-prefix", str(tmp_path / "x")]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_simulate_deterministic_output(tmp_path, model_json):
    args = [
        "simulate", str(model_json), "--f", "0.6", "--t-end", "10", "--dt", "0.1",
    ]
    assert main(args + ["--out-prefix", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-prefix", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a_f0.6.csv").read_bytes() == (tmp_path / "b_f0.6.csv").read_bytes()
    assert (
        (tmp_path / "a_dose_sweep.svg").read_bytes()
        == (tmp_path / "b_dose_sweep.svg").read_bytes()
    )


@pytest.mark.parametrize("suite", SUITES)
def test_verify_suites_pass(suite, model_json, capsys):
    assert main(["verify", str(model_json), "--suite", suite]) == 0
    printed = [line.split("  ")[:2] for line in capsys.readouterr().out.splitlines()]
    model = mc.model_from_dict(FITTED_MODEL)
    checks = SUITES[suite](model)
    assert printed == [["PASS", check.name] for check in checks]


@pytest.mark.parametrize(
    "model",
    [
        {"family": "erfc", "beta0": 2.0, "m": 20.0, "sigma": 0.05},
        {"family": "gamma1", "m": 2.0, "sigma": 0.05},
    ],
    ids=["erfc", "gamma1"],
)
def test_imt_convergence_passes_once_the_gaps_are_rounding_noise(tmp_path, capsys, model):
    # both models converge within the first window: their three L1 gaps are all
    # below 1e-13 and differ only in rounding, so the suite must not call them rising
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert main(["verify", str(path), "--suite", "imt-convergence"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_full_pipeline_chains_through_files(tmp_path, data_dir, capsys):
    growth_prefix = tmp_path / "growth"
    assert main(
        ["fit-growth", str(data_dir / "growth_curve.csv"), "--out-prefix", str(growth_prefix)]
    ) == 0
    lam = json.loads((tmp_path / "growth.json").read_text())["lambda"]

    fit_prefix = tmp_path / "fit"
    assert main(
        [
            "fit-imt", str(data_dir / "imt_histogram.csv"),
            "--dt", "1.25", "--lambda", str(lam), "--family", "erfc-mu",
            "--seed", "0", "--out-prefix", str(fit_prefix),
        ]
    ) == 0
    model_path = tmp_path / "fit_model.json"
    assert model_path.exists()

    assert main(
        [
            "simulate", str(model_path),
            "--f", "0", "0.84", "--t-end", "30", "--dt", "0.1",
            "--out-prefix", str(tmp_path / "sim"),
        ]
    ) == 0
    assert (tmp_path / "sim_dose_sweep.svg").exists()
    # the full fit-result file is also accepted as a model source
    assert main(["verify", str(tmp_path / "fit.json"), "--suite", "eigen"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_fraction_with_death_is_decided_by_the_closed_form(tmp_path, capsys):
    # |F - f| is 0.0101 at f = 0.6 here: the quiescent pool decays, so F != f
    model = {"family": "erfc-mu", "beta0": 0.2526, "m": 15.37, "sigma": 2.63, "mu": 0.0043}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert main(["verify", str(path), "--suite", "fraction"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_covers_a_slow_plateau_after_a_narrow_rise(tmp_path, capsys):
    # survival falls below tolerance only ~2800 sigma past m; the imt-convergence
    # windows are set by the model's own survival, not on the sigma scale
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps({"family": "erfc", "beta0": 0.05, "m": 10, "sigma": 0.1}))
    for suite in SUITES:
        assert main(["verify", str(path), "--suite", suite]) == 0, suite
    assert "FAIL" not in capsys.readouterr().out


def test_verify_reports_failure_with_exit_one(tmp_path, capsys):
    # a rate that rises within one age step is too sharp for the trapezoid boundary identity
    sharp = {"family": "gamma1", "m": 2.0, "sigma": 0.05}
    path = tmp_path / "sharp.json"
    path.write_text(json.dumps(sharp))
    assert main(["verify", str(path), "--suite", "eigen"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_missing_file_is_usage_error(capsys):
    assert main(["fit-growth", "/nonexistent/file.csv"]) == 2
    assert "error" in capsys.readouterr().err


def test_module_entry_point_help():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "mitoclock.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "fit-imt" in proc.stdout and "simulate" in proc.stdout


IMPORT_PROBE = """
import sys

import numpy as np

import mitoclock
import mitoclock.cli
from mitoclock.io import write_columns


def loaded(*prefixes):
    return sorted(m for m in sys.modules if m.startswith(prefixes))


growth_csv, hist_csv, model_json, out = sys.argv[1:]
assert not loaded("scipy"), loaded("scipy")
ages = np.arange(0.0, 80.0, 0.05)
emg = mitoclock.Model(family="emg", beta0=0.2, m=22.0, sigma=2.5)
write_columns(out + "/imt_density.csv", ("age", "I"), (ages, mitoclock.imt_density(emg, ages)))
commands = [["fit-growth", growth_csv, "--out-prefix", out + "/growth"]]
commands += [["fit-imt", hist_csv, "--dt", "1.25", "--lambda", "0.022", "--family", family,
              "--out-prefix", out + "/fit_" + family] for family in mitoclock.FAMILIES]
commands += [["invert", out + "/imt_density.csv", "--out-prefix", out + "/inv"]]
commands += [["simulate", model_json, "--f", "0", "0.6", "--t-end", "10", "--out-prefix", out + "/s"]]
commands += [["verify", model_json, "--suite", suite] for suite in mitoclock.checks.SUITES]
for argv in commands:
    assert mitoclock.cli.main(argv) == 0, argv
    assert not loaded("scipy"), (argv, loaded("scipy"))
"""


def test_commands_import_only_the_scipy_they_use(tmp_path, data_dir, model_json):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(data_dir / "growth_curve.csv"),
         str(data_dir / "imt_histogram.csv"), str(model_json), str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_fit_imt_help_lists_the_families(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["fit-imt", "--help"])
    assert excinfo.value.code == 0
    assert "{" + ",".join(mc.FAMILIES) + "}" in capsys.readouterr().out


def test_verify_help_lists_the_suites(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--help"])
    assert excinfo.value.code == 0
    assert "{" + ",".join(SUITES) + "}" in capsys.readouterr().out


def test_verify_unknown_suite_is_usage_error(model_json, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", str(model_json), "--suite", "spectral"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'spectral'" in capsys.readouterr().err


LOAD_PROBE = """
import importlib.machinery
import sys

executed = []
exec_module = importlib.machinery.SourceFileLoader.exec_module


def recorded(loader, module):
    executed.append(module.__name__)
    return exec_module(loader, module)


importlib.machinery.SourceFileLoader.exec_module = recorded
import mitoclock.cli

if sys.argv[1:]:
    assert mitoclock.cli.main(sys.argv[1:]) == 0
names = sorted(name.removeprefix("mitoclock.") for name in executed
               if name.startswith("mitoclock."))
package = vars(sys.modules["mitoclock"])
missing = [name for name in names if package.get(name) is not sys.modules["mitoclock." + name]]
assert not missing, "not package attributes: " + str(missing)
# numpy.polynomial costs each command ~6 ms to import; no command needs it
assert "numpy.polynomial" not in sys.modules
print(" ".join(names))
"""
BASE = {"cli", "errors", "io"}
SIMULATION = {"imt_models", "spectral", "simulator"}


@pytest.mark.parametrize("command, extra, modules", [
    pytest.param(None, [], BASE, id="import"),
    pytest.param("fit-growth", [], BASE | {"growth"}, id="fit-growth"),
    pytest.param("fit-imt", ["--dt", "1.25", "--lambda", "0.022", "--family", "erfc"],
                 BASE | {"histogram", "fitter", "imt_models"}, id="fit-imt"),
    pytest.param("invert", [], BASE | {"inversion", "fitter", "histogram", "imt_models"},
                 id="invert"),
    pytest.param("simulate", ["--f", "0", "0.6", "--t-end", "10"], BASE | SIMULATION | {"svg"},
                 id="simulate"),
    # the eigen suite alone runs no simulation
    pytest.param("verify", ["--suite", "eigen"], BASE | {"checks", "imt_models", "spectral"},
                 id="verify-eigen"),
    *[pytest.param("verify", ["--suite", suite], BASE | SIMULATION | {"checks"},
                   id=f"verify-{suite}") for suite in ("gre", "imt-convergence", "fraction")],
])
def test_each_command_runs_only_its_modules(tmp_path, data_dir, model_json, command, extra,
                                            modules):
    # the README inputs; the emg density that invert reads is tabulated here
    ages = np.arange(0.0, 80.0, 0.05)
    emg = mc.Model(family="emg", beta0=0.2, m=22.0, sigma=2.5)
    density_csv = tmp_path / "imt_density.csv"
    write_columns(density_csv, ("age", "I"), (ages, mc.imt_density(emg, ages)))
    source = {"fit-growth": data_dir / "growth_curve.csv",
              "fit-imt": data_dir / "imt_histogram.csv",
              "invert": density_csv, "simulate": model_json, "verify": model_json}
    argv = [] if command is None else [command, str(source[command]), *extra]
    if command not in (None, "verify"):
        argv += ["--out-prefix", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", LOAD_PROBE, *argv], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.splitlines()[-1].split()) == modules  # after the command's output
