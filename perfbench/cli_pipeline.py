"""Workload cli-pipeline: the README pipeline as separate ``mitoclock`` processes.

One pass runs fit-growth, fit-imt, invert, simulate and the four verify
suites, each in a fresh interpreter, one after the other. This is what a
command-line user pays, and most of it is interpreter start-up and imports,
so an import-time cut shows here while a kernel speed-up barely does.

No pipeline step writes the density that ``invert`` reads, so the workload
draws an exponentially modified Gaussian (emg) from the workload seed and
tabulates its density. The worker imports nothing numerical; the traced run
imports the package for its in-process mirror.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import subprocess
import sys
import time

from common import BIN_WIDTH, GROWTH_RATE, REFERENCE, median

ENTRY = "import sys; from mitoclock.cli import main; sys.exit(main())"
COMMAND_TIMEOUT = 60.0  # s; a command that runs longer is killed and counted failed
# Host-speed reference of the commands: a fresh interpreter that runs nothing.
# Its median time on the 2-vCPU Intel Xeon virtual machine the benchmark was built on:
INTERP_REFERENCE_S = 0.07
PROBE_REPEATS = 3
SUITES = ("eigen", "gre", "imt-convergence", "fraction")
COMMANDS = ("fit-growth", "fit-imt", "invert", "simulate") + tuple(f"verify-{s}" for s in SUITES)
DOSES = (0.0, 0.6, 0.84)
T_END = 90.0
EMG_STEP = 0.05  # h, age step of the generated density table
EMG_TAIL = 1e-7  # the table runs until the density falls below this share of its peak

LAYER_METRICS = {
    "cli.interp_s": "s",
    "cli.import_s": "s",
    **{f"cli.cmd.{c}_s": "s" for c in COMMANDS},
    "cli.exit_nonzero": "count",
    "cli.unaccounted_s": "s",
    "histogram.load_reweight_ms": "ms",
    "growth.load_fit_ms": "ms",
    "inversion.invert_imt_ms": "ms",
    "inversion.best_erfc_fit_ms": "ms",
}


def emg_table(beta0: float, m: float, sigma: float):
    """Ages and emg density beta0*erfc(z)*exp(2*b*z - b^2), z = (m-a)/sigma, b = beta0*sigma."""
    b = beta0 * sigma

    def density(a):
        z = (m - a) / sigma
        return beta0 * math.erfc(z) * math.exp(2.0 * b * z - b * b)

    ages, values = [], []
    peak = 0.0
    k = 0
    while True:
        a = k * EMG_STEP
        v = density(a)
        ages.append(a)
        values.append(v)
        peak = max(peak, v)
        if a > m and v < EMG_TAIL * peak:
            return ages, values
        k += 1


def _read_csv(path) -> list[list[float]]:
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return [[float(x) for x in line.split(",")] for line in fh if line.strip()]


class Workload:
    name = "cli-pipeline"

    def __init__(self, root, seed: int, workdir):
        self.root = root
        self.data = root / "data"
        self.work = workdir / "pass"
        rng = random.Random(seed)
        # criterion-3 parameter ranges of the emg family
        self.emg = (rng.uniform(0.12, 0.3), rng.uniform(18.0, 28.0), rng.uniform(1.5, 4.0))
        ages, values = emg_table(*self.emg)
        self.density_csv = workdir / "imt_density.csv"
        workdir.mkdir(parents=True, exist_ok=True)
        with open(self.density_csv, "w", encoding="utf-8") as fh:
            fh.write("age,I\n")
            fh.writelines(f"{a!r},{v!r}\n" for a, v in zip(ages, values))

    def argv(self, command: str, out) -> list[str]:
        """Arguments of one pipeline command writing under ``out``."""
        if command == "fit-growth":
            return ["fit-growth", str(self.data / "growth_curve.csv"),
                    "--out-prefix", str(out / "growth")]
        if command == "fit-imt":
            return ["fit-imt", str(self.data / "imt_histogram.csv"), "--dt", repr(BIN_WIDTH),
                    "--lambda", repr(GROWTH_RATE), "--family", "erfc-mu",
                    "--out-prefix", str(out / "fit")]
        if command == "invert":
            return ["invert", str(self.density_csv), "--out-prefix", str(out / "inv")]
        if command == "simulate":
            return ["simulate", str(out / "fit_model.json"), "--f", *map(repr, DOSES),
                    "--t-end", repr(T_END), "--out-prefix", str(out / "sweep")]
        suite = command.removeprefix("verify-")
        return ["verify", str(out / "fit_model.json"), "--suite", suite]

    def _python(self, code: str, *argv):
        """A fresh interpreter running ``code`` with ``argv``, from the checkout root."""
        return subprocess.run(
            [sys.executable, "-c", code, *argv], cwd=self.root, capture_output=True,
            text=True, timeout=COMMAND_TIMEOUT,
        )

    def speed(self) -> float:
        """INTERP_REFERENCE_S over the time a fresh interpreter takes to start and exit now."""
        start = time.perf_counter()
        self._python("pass")
        return INTERP_REFERENCE_S / (time.perf_counter() - start)

    def warm_up(self, rec) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        rec.op("warm-up", self._python, ENTRY, *self.argv("fit-growth", self.work),
               check=self._exit_ok)

    def run_pass(self, rec) -> None:
        # stale outputs must not let a failing command look correct
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        for command in COMMANDS:
            proc = rec.op(f"cmd.{command}", self._python, ENTRY, *self.argv(command, self.work),
                          check=lambda p, c=command: self.check(c, p, self.work))
            rec.note(rc=None if proc is None else proc.returncode)

    @staticmethod
    def _exit_ok(proc):
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {(proc.stderr or proc.stdout).strip()[-300:]}"
        return None

    def check(self, command: str, proc, out):
        """None if the command exited 0 and its outputs are right, else why not."""
        if (bad := self._exit_ok(proc)) is not None:
            return bad
        if command == "fit-growth":
            fit = json.loads((out / "growth.json").read_text())
            if not (abs(fit["lambda"] - GROWTH_RATE) < 1e-3 and fit["r_squared"] > 0.99):
                return f"growth fit off: {fit}"
        elif command == "fit-imt":
            fit = json.loads((out / "fit.json").read_text())
            model = fit["model"]
            off = [k for k in ("beta0", "m", "sigma") if abs(model[k] / REFERENCE[k] - 1.0) > 0.10]
            if off or not 0.001 <= model["mu"] <= 0.01 or fit["r_squared"] < 0.99:
                return f"fit off the reference (criterion 4): {model}"
            if abs(fit["integral_i_tilde"] - 1.0) > 0.12:
                return f"fit fails the unit-mass check: {fit['integral_i_tilde']}"
        elif command == "invert":
            # the emg rate is an error function (criterion 2) with the same beta0
            fit = json.loads((out / "inv_erfc.json").read_text())
            beta0 = self.emg[0]
            if fit["r_squared"] < 0.9999 or abs(fit["best_erfc"]["beta0"] / beta0 - 1.0) > 0.01:
                return f"inverted emg rate is no erfc with beta0={beta0}: {fit}"
            rows = _read_csv(out / "inv_beta.csv")
            if len(rows) < 100 or not all(math.isfinite(b) and b >= 0 for _, b in rows):
                return "inverted rate table is short or not finite"
        elif command == "simulate":
            finals = []
            for f in DOSES:
                rows = _read_csv(out / f"sweep_f{f:g}.csv")
                if abs(rows[-1][0] - T_END) > 1e-9 or not all(r[3] > 0 for r in rows):
                    return f"simulation f={f:g} ends early or loses its population"
                finals.append(rows[-1][3] / rows[0][3])
            if not (finals[0] > 1.0 and all(a > b for a, b in zip(finals, finals[1:]))):
                return f"growth does not fall with the dose: {finals}"
        else:
            lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
            if not lines or not all(ln.startswith("PASS") for ln in lines):
                return f"suite did not pass: {proc.stdout.strip()[-300:]}"
        return None

    # -- traced run -------------------------------------------------------

    def trace_extras(self, rec) -> None:
        """Fresh-interpreter probes and an in-process mirror of one pass.

        The mirror runs each command's ``main`` in this process on the same
        inputs, so its layer spans split a command's time into interpreter,
        import and layer self time; what is left is the unaccounted part.
        """
        for _ in range(PROBE_REPEATS):
            rec.op("probe.interp", self._python, "pass", check=self._exit_ok)
            rec.op("probe.import", self._python, "import mitoclock.cli", check=self._exit_ok)
        from mitoclock import cli

        mirror = self.work.parent / "mirror"
        shutil.rmtree(mirror, ignore_errors=True)
        mirror.mkdir(parents=True)
        for command in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                rec.op(f"mirror.{command}", cli.main, self.argv(command, mirror),
                       check=lambda rc: None if rc == 0 else f"exit {rc}")

    def layer_metrics(self, index, rec, passes) -> dict:
        from tracing import NAME

        passes = set(passes)
        ops = [row for row in rec.ops if row[0] in passes]
        probes = {name: median([r[2] for r in rec.ops if r[1] == name])
                  for name in ("probe.interp", "probe.import")}
        interp = probes["probe.interp"]
        imported = probes["probe.import"] - interp
        mirror = {r[1].removeprefix("mirror."): r[2] for r in rec.ops if r[1].startswith("mirror.")}
        pass_walls = [index.duration(i) for i in index.select("pass", passes)]
        explained = sum(interp + imported + mirror[c] for c in COMMANDS)

        def under(command, names):
            """ms the mirrored command spent in calls to the named functions."""
            (op,) = index.select("op", passes, name=f"mirror.{command}")
            return 1e3 * sum(index.duration(i) for i in index.children.get(op, ())
                             if index.spans[i][NAME] in names)

        return {
            "cli.interp_s": interp,
            "cli.import_s": imported,
            **{f"cli.cmd.{c}_s": median([r[2] for r in ops if r[1] == f"cmd.{c}"])
               for c in COMMANDS},
            "cli.exit_nonzero": sum(
                1 for r in ops if r[1].startswith("cmd.") and r[4].get("rc") != 0),
            "cli.unaccounted_s": median(pass_walls) - explained,
            "histogram.load_reweight_ms": under("fit-imt", {
                "histogram.load_histogram", "histogram.normalize", "histogram.reweight"}),
            "growth.load_fit_ms": under("fit-growth", {
                "growth.load_growth_csv", "growth.fit_growth"}),
            "inversion.invert_imt_ms": under("invert", {"inversion.invert_imt"}),
            "inversion.best_erfc_fit_ms": under("invert", {"inversion.best_erfc_fit"}),
        }
