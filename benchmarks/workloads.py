"""The workloads: seeded inputs, one closed-loop pass, and its checks.

Every oracle here is a closed form, never a library output.  The model is
m = beta = 1 throughout (as in the kink demo config), so for a kink of
velocity v, with mu = sqrt((1 - v)/(1 + v)) and gamma = 1/sqrt(1 - v^2):

    a(lambda) = (lambda - i mu)/(lambda + i mu),  fa = 1/a     (|a| = 1 on the real ray)
    |I_1| = 2 mu, |I_3| = 2 mu^3/3, I_0 = -pi, |I_-1| = 2/mu, |I_-3| = 2/(3 mu^3), I_even = 0
    H_S = 8 gamma,  H_T = -8 gamma |v|
    vacuum monodromy = identity

Gates come from the tier-1 tests that check the same identities.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass

import numpy as np

V_KINK = 0.4  # the demo kink, also the sweep's kink
X0_RANGE = 0.5  # seeds shift x0 within +-X0_RANGE
SCENARIO_JITTER = 0.01  # relative lambda jitter of the scenario lists
SWEEP_JITTER = 0.004  # a quarter of the sweep's log spacing, keeps lambda ordered

BLASCHKE_GATE = 1e-7  # test_transition: kink scattering is reflectionless Blaschke
VACUUM_GATE = 1e-10  # test_transition: vacuum monodromy is the identity
CHARGE_FIT_GATE = 1e-4  # C05b: charges fitted from ln a(lambda)
LEDGER_GATE = 1e-9  # test_charges: ledger entries against closed forms
LEDGER_ZERO_GATE = 1e-12  # test_charges: even charges vanish
ENERGY_GATE = 1e-5  # test_fields / test_defect: kink energies and the H_T shift

SPACE_W, TIME_W, FIT_W = 40.0, 50.0, 30.0
SWEEP_LAMBDAS = np.geomspace(0.2, 5.0, 200)
TAIL_LAMBDAS = np.array([0.1, 0.05, 0.02, 0.01])
VACUUM_LAMBDAS = np.array([0.2, 0.7, 1.3, 5.0])
FIT_LAMBDAS = np.geomspace(10.0, 100.0, 24)
FIT_TERMS = 5


def _digits(gap: float) -> float:
    return 16.0 if gap == 0.0 else -math.log10(gap)


class Checks:
    """Attempted and failed checks, and the smallest gate margin in digits."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.margin = 16.0
        self.failures = []

    def _fail(self, name, why):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{name}: {why}")

    def verdict(self, name, passed: bool, gap: float, tol: float):
        """A check with a gap and a gate; ``passed`` is the caller's verdict."""
        self.attempted += 1
        if gap == 0.0:
            margin = 16.0
        elif tol > 0.0 and math.isfinite(gap):
            margin = math.log10(tol / gap)
        else:
            margin = -16.0
        self.margin = min(self.margin, max(-16.0, min(16.0, margin)))
        if not passed:
            self._fail(name, f"gap {gap:.3e} against gate {tol:.1e}")

    def gap(self, name, gap: float, tol: float):
        gap = float(gap)
        self.verdict(name, math.isfinite(gap) and gap <= tol, gap, tol)

    def same(self, name, ok: bool):
        """A pass/fail check without a gap (exit codes, byte identity)."""
        self.attempted += 1
        if not ok:
            self._fail(name, "mismatch")


def _kink_forms(v):
    mu = math.sqrt((1.0 - v) / (1.0 + v))
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    ledger = {1: 2 * mu, 2: 0.0, 3: 2 * mu**3 / 3, 0: math.pi, -1: 2 / mu, -2: 0.0, -3: 2 / (3 * mu**3)}
    return mu, gamma, ledger


def _jitter(rng, values, rel):
    values = np.asarray(values, dtype=float)
    return values if rng is None else values * np.exp(rng.uniform(-rel, rel, size=values.shape))


# ---------------------------------------------------------------------------
# transition oracles: Blaschke scattering, vacuum identity, charge fit
# ---------------------------------------------------------------------------


@dataclass
class TransitionOutputs:
    space_lams: np.ndarray
    a: np.ndarray
    time_lams: np.ndarray
    fa: np.ndarray
    vacuum: np.ndarray  # (n, 2, 2) vacuum monodromies, both pictures
    fit: tuple  # fitted (I_1, I_3)

    def tobytes(self) -> bytes:
        return b"".join(np.asarray(x, dtype=complex).tobytes() for x in (self.a, self.fa, self.vacuum, self.fit))


def transition_pass(sg, x0, space_lams, time_lams, vac_lams, fit_lams) -> TransitionOutputs:
    """Public-API monodromies of the v=0.4 kink and the vacuum, plus the charge fit."""
    params = sg.fields.ModelParams(1.0, 1.0)
    kink = sg.fields.make_kink(params, V_KINK, x0)
    vac = sg.fields.make_vacuum(params)
    spectral, monodromy = sg.lax.spectral, sg.transition.monodromy
    a = [monodromy(kink, "space", 0.0, SPACE_W, spectral(l, params)).a_entry for l in space_lams]
    fa = [monodromy(kink, "time", 0.3, TIME_W, spectral(l, params)).a_entry for l in time_lams]
    vacuum = [
        monodromy(vac, picture, 0.0, SPACE_W, spectral(l, params)).matrix
        for l in vac_lams
        for picture in ("space", "time")
    ]
    fit = sg.charges.fit_charges_from_monodromy(kink, "space", 0.0, fit_lams, FIT_TERMS, FIT_W)
    return TransitionOutputs(
        np.asarray(space_lams), np.asarray(a), np.asarray(time_lams), np.asarray(fa),
        np.asarray(vacuum), (fit.value(1), fit.value(3)),
    )


def check_transition(out: TransitionOutputs, checks: Checks) -> dict:
    """Closed-form checks of one transition pass; returns the three digit figures."""
    mu, _, ledger = _kink_forms(V_KINK)
    blaschke = (out.space_lams - 1j * mu) / (out.space_lams + 1j * mu)
    gaps_a = np.abs(out.a - blaschke)
    gaps_fa = np.abs(out.fa - (out.time_lams + 1j * mu) / (out.time_lams - 1j * mu))
    for lam, gap in zip(out.space_lams, gaps_a):
        checks.gap(f"blaschke a lambda={lam:.6g}", gap, BLASCHKE_GATE)
    for lam, gap in zip(out.time_lams, gaps_fa):
        checks.gap(f"blaschke fa lambda={lam:.6g}", gap, BLASCHKE_GATE)
    vac_dev = np.abs(out.vacuum - np.eye(2)).max(axis=(1, 2))
    for k, dev in enumerate(vac_dev):
        checks.gap(f"vacuum monodromy #{k}", dev, VACUUM_GATE)
    fit_gaps = [abs(out.fit[0] + ledger[1]) / ledger[1], abs(out.fit[1] - ledger[3]) / ledger[3]]
    checks.gap("charge fit I_1", fit_gaps[0], CHARGE_FIT_GATE)
    checks.gap("charge fit I_3", fit_gaps[1], CHARGE_FIT_GATE)
    return {
        "blaschke_digits": _digits(float(max(gaps_a.max(initial=0.0), gaps_fa.max(initial=0.0)))),
        "vacuum_digits": _digits(float(vac_dev.max())),
        "charge_fit_digits": _digits(float(max(fit_gaps))),
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class LambdaSweep:
    """Kink v=0.4: space picture at 200 lambda in [0.2, 5] plus a tail to 0.01,
    time picture at every 4th lambda, vacuum at four, charge fit over 24 in [10, 100]."""

    def prepare(self, seed, root, workdir):
        rng = None if seed == 0 else np.random.default_rng(seed)
        self.x0 = 0.0 if rng is None else float(rng.uniform(-X0_RANGE, X0_RANGE))
        sweep = _jitter(rng, SWEEP_LAMBDAS, SWEEP_JITTER)
        self.space_lams = np.concatenate([sweep, _jitter(rng, TAIL_LAMBDAS, SWEEP_JITTER)])
        self.time_lams = sweep[::4]
        self.vac_lams = _jitter(rng, VACUUM_LAMBDAS, SWEEP_JITTER)
        self.fit_lams = _jitter(rng, FIT_LAMBDAS, SWEEP_JITTER)
        self.n_configs = 1
        self.reference = None
        self.digits = None  # digit figures of the last checked pass
        return {"x0": self.x0, "lambda_points": self.work}

    @property
    def work(self) -> int:
        return len(self.space_lams) + len(self.time_lams) + 2 * len(self.vac_lams) + len(self.fit_lams)

    def run_pass(self, sg, index):
        return transition_pass(sg, self.x0, self.space_lams, self.time_lams, self.vac_lams, self.fit_lams)

    def check_pass(self, index, out, checks) -> int:
        data = out.tobytes()
        if self.reference is None:
            self.reference = data
        else:
            checks.same("sweep outputs identical across passes", data == self.reference)
        self.digits = check_transition(out, checks)
        return self.work


class KinkScenario:
    """``sgdual.cli.run`` on the kink demo config, cycling the seed's x0 and both
    ends of the x0 range; the reports are checked case by case, against closed
    forms and for byte identity across passes of the same config."""

    def prepare(self, seed, root, workdir):
        base = json.loads((root / "demos" / "scenario_kink.json").read_text())
        rng = None if seed == 0 else np.random.default_rng(seed)
        lams = base["spectral"]["lambda_list"]
        x0_seed = 0.0 if rng is None else float(rng.uniform(-X0_RANGE, X0_RANGE))
        jittered = lams if rng is None else [float(l) for l in _jitter(rng, lams, SCENARIO_JITTER)]
        self.x0s = [x0_seed, -X0_RANGE, X0_RANGE]
        self.lambdas = jittered
        self.paths = []
        for k, x0 in enumerate(self.x0s):
            config = json.loads(json.dumps(base))
            if k or rng is not None:
                config["solution"]["x0"] = x0
                config["spectral"]["lambda_list"] = jittered
            path = workdir / f"scenario_kink-{k}.json"
            path.write_text(json.dumps(config, indent=2))
            self.paths.append((path, workdir / f"reports-{k}", config))
        self.n_configs = len(self.paths)
        self.suites = base["suites"]
        self.reference = {}
        # the kink report has no vacuum monodromy, so vacuum_digits stays at the cap
        self.digits = dict.fromkeys(("blaschke_digits", "vacuum_digits", "charge_fit_digits"), 16.0)
        return {"x0": self.x0s, "lambdas": self.lambdas}

    def run_pass(self, sg, index):
        path, out, _ = self.paths[index % self.n_configs]
        with contextlib.redirect_stdout(io.StringIO()):
            return sg.cli.run(str(path), str(out), "csv", 1)

    def check_pass(self, index, exit_code, checks) -> int:
        k = index % self.n_configs
        _, out, config = self.paths[k]
        checks.same(f"config {k} exit code 0", exit_code == 0)
        files = {name: (out / f"{name}.csv").read_bytes() for name in self.suites}
        shutil.rmtree(out)  # the next pass of this config must write every report afresh
        if k not in self.reference:
            self.reference[k] = files
        else:
            for name, data in files.items():
                checks.same(f"config {k} {name}.csv byte-identical", data == self.reference[k][name])
        rows = {name: list(csv.DictReader(io.StringIO(data.decode()))) for name, data in files.items()}
        for name, table in rows.items():
            for row in table:
                checks.verdict(f"config {k} {name}/{row['case']}", row["pass"] == "pass",
                               float(row["gap"]), float(row["tolerance"]))
        self._closed_forms(k, config, rows, checks)
        return sum(len(table) for table in rows.values())

    def _closed_forms(self, k, config, rows, checks):
        sol = config["solution"]
        # the defect suite glues the vacuum to the Backlund kink of velocity (1 - s^2)/(1 + s^2)
        sigma = float(sol.get("sigma", 2.0))
        v_pair = (1.0 - sigma * sigma) / (1.0 + sigma * sigma)
        v = float(sol["v"])
        _, gamma, ledger = _kink_forms(v)
        h_s, h_t = 8.0 * gamma, -8.0 * gamma * abs(v)
        h_t_shift = -8.0 * _kink_forms(v_pair)[1] * abs(v_pair)
        tag = f"config {k}"
        digits = self.digits
        for row in rows.get("monodromy-conservation", []):
            for side in ("lhs", "rhs"):
                gap = abs(float(row[side]) - 1.0)
                checks.gap(f"{tag} |a| = 1 {row['case']} {side}", gap, BLASCHKE_GATE)
                digits["blaschke_digits"] = min(digits["blaschke_digits"], _digits(gap))
        for row in rows.get("energy-identities", []):
            want = h_s if row["case"] == "space" else h_t
            for side in ("lhs", "rhs"):  # the report holds (beta^2/2m) H
                checks.gap(f"{tag} energy {row['case']} {side}", abs(2.0 * float(row[side]) - want), ENERGY_GATE)
        for row in rows.get("charges", []):
            if row["case"].startswith("I-drift-n="):
                n = int(row["case"].split("=")[1])
                gate = LEDGER_GATE if ledger[n] else LEDGER_ZERO_GATE
                for side in ("lhs", "rhs"):
                    gap = abs(float(row[side]) - ledger[n])
                    checks.gap(f"{tag} |I_{n}| {side}", gap, gate)
                    if n in (1, 3):  # the charges the sweep fits, as relative gaps
                        digits["charge_fit_digits"] = min(digits["charge_fit_digits"], _digits(gap / ledger[n]))
            elif row["case"] == "topological-entry":
                checks.gap(f"{tag} I_0 = -pi", abs(float(row["lhs"]) + math.pi), LEDGER_GATE)
        for row in rows.get("defect", []):
            if row["case"] == "ham-shift":  # H_T(right kink) - H_T(vacuum)
                for side in ("lhs", "rhs"):
                    checks.gap(f"{tag} H_T shift {side}", abs(float(row[side]) - h_t_shift), ENERGY_GATE)


WORKLOADS = {
    "scenario-kink": KinkScenario,
    "lambda-sweep": LambdaSweep,
}
