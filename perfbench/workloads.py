"""The benchmark's workloads: seeded inputs, the CLI calls of one operation,
and the oracles that check each call's report.

Every workload is a closed loop of whole ``rxfront`` CLI calls. The program
only ever sees the files written here; sizes are fixed and the content comes
from the seed. Checks compare against values recomputed in this file (or,
for the shipped examples, reports recorded once from the program), never
against bytes produced by the run being checked.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BOLTZMANN = 1.380649e-23

# Relative tolerance of the oracle checks. Reports print 12 significant
# digits, so a correct value is off by at most 5e-12 relative.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``python -m rxfront.cli *argv`` writing ``out``."""

    label: str
    argv: list
    out: Path


@dataclass
class Operation:
    """The calls that make up one operation, and the checker for their reports."""

    calls: list
    checks: dict

    def check(self, label: str, text: str) -> str | None:
        """Return None when the report of call ``label`` is correct, else why not."""
        try:
            return self.checks[label](text)
        except (ValueError, KeyError, IndexError) as exc:
            return f"{label}: unreadable report ({type(exc).__name__}: {exc})"


def _rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def _num(token: str) -> float:
    return math.inf if token == "inf" else float(token)


def _close(got: float, want: float, rel: float = REL_TOL) -> bool:
    if want == 0.0:
        return got == 0.0
    return abs(got - want) <= rel * abs(want)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1) + "\n")


# ---------------------------------------------------------------- array_sweep
#
# Why: the synthetic 1 tx x 16 rx model at 400 frequencies and three
# strategies, at --jobs 1, is the array engine's scale case. Per-row model
# rebuilds, re-validation, three solves and cond per row dominate it.

ARRAY_PORTS = (1, 16)
ARRAY_FREQS = 400
ARRAY_STRATEGIES = ("open_circuit", "per_antenna_conjugate", "full_conjugate")


def array_sweep(root: Path, work: Path, seed: int) -> Operation:
    rng = np.random.default_rng([seed, 1])
    n_tx, n_rx = ARRAY_PORTS
    self_ohms = complex(round(rng.uniform(40.0, 60.0), 6), round(rng.uniform(-10.0, 10.0), 6))
    coupling = round(rng.uniform(2.0, 6.0), 6)
    decay = round(rng.uniform(0.4, 0.7), 6)
    f0 = round(rng.uniform(1e6, 2e6), 3)
    freqs = [f0 * (1.0 + 2.0 * i / (ARRAY_FREQS - 1)) for i in range(ARRAY_FREQS)]
    model_seed = int(rng.integers(2**31))
    scenario = work / "array_sweep.json"
    _write_json(scenario, {
        "name": "bench-array",
        "array": {
            "synthetic": {
                "n_tx": n_tx, "n_rx": n_rx,
                "self_ohms": {"re": self_ohms.real, "im": self_ohms.imag},
                "coupling_ohms": coupling, "decay": decay,
                "frequencies_hz": freqs, "seed": model_seed,
            },
            "strategies": list(ARRAY_STRATEGIES),
        },
    })

    def expected():
        # The model comes from the program's own generator, called exactly as
        # the CLI calls it; everything after that is recomputed here.
        from rxfront import arrays

        model = arrays.make_synthetic_model(
            n_tx, n_rx, self_ohms, coupling, decay, freqs,
            rng=np.random.default_rng(model_seed),
        )
        mats = np.asarray(model.zms.matrices)
        z_r = mats[:, n_tx:, n_tx:]
        v_oc = np.einsum("fkm,fm->fk", mats[:, n_tx:, :n_tx], np.asarray(model.i_t))
        out = {"open_circuit": (v_oc, np.zeros(len(freqs)))}
        eye = np.eye(n_rx)
        loads = {
            "per_antenna_conjugate": np.conj(np.diagonal(z_r, axis1=1, axis2=2))[:, :, None] * eye,
            "full_conjugate": np.conj(z_r),
        }
        for name, z_l in loads.items():
            currents = np.linalg.solve(z_r + z_l, v_oc[:, :, None])[:, :, 0]
            through = np.einsum("fij,fj->fi", z_l, currents)
            power = 0.5 * np.einsum("fi,fi->f", np.conj(currents), through).real
            out[name] = (through, power.tolist())
        return out

    oracle = {}

    def check(text: str) -> str | None:
        if not oracle:
            oracle.update(expected())
        rows = _rows(text)
        if len(rows) != ARRAY_FREQS * len(ARRAY_STRATEGIES):
            return f"array: {len(rows)} rows, want {ARRAY_FREQS * len(ARRAY_STRATEGIES)}"
        powers = {}
        for index, row in enumerate(rows):
            fi, si = divmod(index, len(ARRAY_STRATEGIES))
            strategy = ARRAY_STRATEGIES[si]
            if row["strategy"] != strategy or not _close(float(row["freq_hz"]), freqs[fi], 1e-11):
                return f"array row {index}: ({row['freq_hz']}, {row['strategy']}) out of order"
            volts, power = oracle[strategy]
            want = volts[fi]
            got = np.array([
                m * complex(math.cos(p), math.sin(p))
                for m, p in zip(map(float, row["v_mag_volts"].split(";")),
                                map(float, row["v_phase_rad"].split(";")))
            ])
            if got.shape != want.shape or np.max(np.abs(got - want)) > REL_TOL * np.max(np.abs(want)):
                return f"array row {index}: terminated voltages differ from Z_L (Z_R+Z_L)^-1 V_oc"
            got_power = float(row["sum_power_w"])
            if strategy == "open_circuit":
                if row["sum_power_w"] != "0":
                    return f"array row {index}: open-circuit power {row['sum_power_w']} is not exactly 0"
            elif not _close(got_power, power[fi]):
                return f"array row {index}: power {got_power!r}, want {power[fi]!r}"
            powers[strategy] = got_power
            if strategy == ARRAY_STRATEGIES[-1] and powers["full_conjugate"] < powers["per_antenna_conjugate"]:
                return f"array freq {freqs[fi]}: full-conjugate power below per-antenna power"
        return None

    out = work / "array_sweep.csv"
    argv = ["array", "--scenario", str(scenario), "--jobs", "1", "--out", str(out)]
    return Operation([Call("array_sweep", argv, out)], {"array_sweep": check})


# ----------------------------------------------------------------- link_sweep
#
# Why: z_r = 5+37j with 20,000 seeded explicit loads plus open and match, and
# a 1001 x 1001 optimize grid, at --jobs 2: normalization, rendering of 140k
# cells, the row thread pool and the grid kernel. The only workload that
# uses the thread pool.

LINK_LOADS = 20_000
LINK_GRID = 1001
LINK_JOBS = 2


class LinkOracle:
    """Closed-form divider, power and SNR of a single link scenario."""

    def __init__(self, scenario: dict):
        section = scenario["link"]
        amp = scenario["amplifier"]
        self.z_r = complex(section["z_r_ohms"]["re"], section["z_r_ohms"].get("im", 0.0))
        z_rt = complex(section["z_rt_ohms"]["re"], section["z_rt_ohms"].get("im", 0.0))
        self.s_voc = abs(z_rt) ** 2 * section["s_it_a2_per_hz"]
        self.g2 = float(amp["gain"]) ** 2
        self.n_na = float(amp["n_na_v2_per_hz"])
        self.two_kt = 2.0 * BOLTZMANN * float(amp["temp_kelvin"])
        self.loads = section["loads"]
        self.grid = section.get("optimize")
        self.snr_oc = self.g2 * self.s_voc / self.n_na if self.n_na > 0 else math.inf
        self.grid_best = self._grid_best() if self.grid else -math.inf

    def row(self, z_l: complex) -> tuple:
        """(divider magnitude, extracted power, SNR) for a finite load."""
        den = self.z_r + z_l
        d2 = abs(den) ** 2
        noise = self.n_na + self.g2 * abs(self.z_r) ** 2 / d2 * self.two_kt * z_l.real
        signal = self.g2 * abs(z_l) ** 2 / d2 * self.s_voc
        return abs(z_l) / abs(den), self.s_voc * z_l.real / (2.0 * d2), signal / noise

    def _grid_best(self) -> float:
        """Best SNR over every cell of the optimize grid."""
        g = self.grid
        re = np.linspace(0.0, g["r_max_ohms"], g["n_re"])[:, None]
        im = np.linspace(-g["x_max_ohms"], g["x_max_ohms"], g["n_im"])[None, :]
        d2 = (self.z_r.real + re) ** 2 + (self.z_r.imag + im) ** 2
        noise = self.n_na + self.g2 * abs(self.z_r) ** 2 / d2 * self.two_kt * re
        signal = self.g2 * (re * re + im * im) / d2 * self.s_voc
        return float(np.max(signal / noise))

    def check_row(self, row: dict, z_l) -> str | None:
        if z_l is None:  # open circuit
            want = (1.0, 0.0, self.snr_oc)
        else:
            want = self.row(z_l)
        got = (float(row["divider_mag"]), float(row["extracted_power_w_per_hz"]), _num(row["snr"]))
        for name, g, w in zip(("divider", "power", "snr"), got, want):
            if not _close(g, w):
                return f"link row {row['label']}: {name} {g!r}, want {w!r}"
        return None

    def check_optimal(self, row: dict) -> str | None:
        """The optimal row is only a lower bound: it must beat every grid cell
        and the open circuit, and agree with its own load."""
        z_l = None if row["z_l_re_ohms"] == "inf" else complex(float(row["z_l_re_ohms"]), float(row["z_l_im_ohms"]))
        problem = self.check_row(row, z_l)
        if problem:
            return problem
        snr = _num(row["snr"])
        floor = max(self.grid_best, self.snr_oc if self.grid.get("include_open", True) else -math.inf)
        if snr < floor * (1.0 - REL_TOL):
            return f"link optimal row: snr {snr!r} below the best grid/open value {floor!r}"
        return None

    def check_report(self, text: str) -> str | None:
        rows = _rows(text)
        want_rows = len(self.loads) + (1 if self.grid else 0)
        if len(rows) != want_rows:
            return f"link: {len(rows)} rows, want {want_rows}"
        for load, row in zip(self.loads, rows):
            if row["label"] != load.get("label", load["kind"]):
                return f"link: row {row['label']!r} out of order"
            if load["kind"] == "open_circuit":
                problem = self.check_row(row, None)
            elif load["kind"] == "conjugate_match":
                problem = self.check_row(row, self.z_r.conjugate())
            else:
                problem = self.check_row(row, complex(load["z_l_ohms"]["re"], load["z_l_ohms"].get("im", 0.0)))
            if problem:
                return problem
        if self.grid:
            return self.check_optimal(rows[-1])
        return None


def link_sweep(root: Path, work: Path, seed: int) -> Operation:
    rng = np.random.default_rng([seed, 2])
    loads = [{"label": "open", "kind": "open_circuit"}, {"label": "match", "kind": "conjugate_match"}]
    resist = rng.uniform(0.0, 500.0, LINK_LOADS)
    react = rng.uniform(-500.0, 500.0, LINK_LOADS)
    loads += [
        {"label": f"z{i:05d}", "kind": "explicit", "z_l_ohms": {"re": float(r), "im": float(x)}}
        for i, (r, x) in enumerate(zip(resist, react))
    ]
    scenario = {
        "name": "bench-link",
        "link": {
            "z_r_ohms": {"re": 5.0, "im": 37.0},
            "z_rt_ohms": {"re": 10.0, "im": 0.0},
            "s_it_a2_per_hz": 1e-12,
            "loads": loads,
            "optimize": {"r_max_ohms": 500.0, "x_max_ohms": 500.0,
                         "n_re": LINK_GRID, "n_im": LINK_GRID, "include_open": True},
        },
        "amplifier": {"gain": 10, "n_na_v2_per_hz": 1e-9, "temp_kelvin": 290},
    }
    path = work / "link_sweep.json"
    _write_json(path, scenario)
    out = work / "link_sweep.csv"
    argv = ["link", "--scenario", str(path), "--jobs", str(LINK_JOBS), "--out", str(out)]
    return Operation([Call("link_sweep", argv, out)], {"link_sweep": LinkOracle(scenario).check_report})


# --------------------------------------------------------------- validate_csv
#
# Why: a 9.5 MB impedance CSV (400 frequencies x 24 ports, dims 8+16, upper
# triangle, 120,000 rows) makes the pure-Python CSV loader dominate. No array
# solve runs and the validators run twice, against 2,402 times in
# array_sweep: the same layer, used differently.

CSV_FREQS = 400
CSV_DIMS = (8, 16)
CSV_TOL = 1e-2


def validate_csv(root: Path, work: Path, seed: int) -> Operation:
    rng = np.random.default_rng([seed, 3])
    n = sum(CSV_DIMS)
    freqs = [1e6 + 25e3 * i for i in range(CSV_FREQS)]
    iu, ju = np.triu_indices(n)
    deviations = []
    lines = ["freq_hz,row,col,re_ohms,im_ohms"]
    for freq in freqs:
        a = rng.normal(size=(n, n))
        real = a @ a.T / n + np.diag(rng.uniform(20.0, 80.0, n))
        eigs = np.linalg.eigvalsh(real)
        # Shift the real part slightly below positive semidefinite, so each
        # frequency has a nonzero passivity deviation that still passes tol.
        real -= (eigs[0] + rng.uniform(1e-4, 5e-3) * eigs[-1]) * np.eye(n)
        imag = rng.normal(scale=30.0, size=(n, n))
        imag = (imag + imag.T) / 2.0
        sym = np.triu(real) + np.triu(real, 1).T  # the matrix the CSV describes
        eigs = np.linalg.eigvalsh(sym)
        deviations.append(max(0.0, -float(eigs[0])) / float(np.max(np.abs(eigs))))
        lines.extend(
            f"{freq!r},{i},{j},{re!r},{im!r}"
            for i, j, re, im in zip(iu.tolist(), ju.tolist(), real[iu, ju].tolist(), imag[iu, ju].tolist())
        )
    (work / "validate.csv").write_text("\n".join(lines) + "\n")
    path = work / "validate_csv.json"
    _write_json(path, {
        "name": "bench-validate",
        "validate": {"impedance_csv": "validate.csv", "dims_m": CSV_DIMS[0],
                     "dims_k": CSV_DIMS[1], "tol": CSV_TOL},
    })

    def check(text: str) -> str | None:
        rows = _rows(text)
        if len(rows) != 2 * CSV_FREQS:
            return f"validate: {len(rows)} rows, want {2 * CSV_FREQS}"
        for index, row in enumerate(rows):
            check_name = ("reciprocity", "passivity")[index // CSV_FREQS]
            freq = freqs[index % CSV_FREQS]
            want = 0.0 if check_name == "reciprocity" else deviations[index % CSV_FREQS]
            if row["check"] != check_name or not _close(float(row["freq_hz"]), freq, 1e-11):
                return f"validate row {index}: ({row['check']}, {row['freq_hz']}) out of order"
            got = float(row["deviation"])
            if abs(got - want) > 1e-7 * want + 1e-14:
                return f"validate row {index}: {check_name} deviation {got!r}, want {want!r}"
            if row["passed"] != "pass" or float(row["tol"]) != CSV_TOL:
                return f"validate row {index}: verdict {row['passed']} at tol {row['tol']}"
        return None

    out = work / "validate_csv.csv"
    argv = ["validate", "--scenario", str(path), "--out", str(out)]
    return Operation([Call("validate_csv", argv, out)], {"validate_csv": check})


# ------------------------------------------------------------------- examples
#
# Why: the nine shipped scenarios, each with its own subcommand, are what
# users run day to day: import dominates each call, it is the only coverage
# of the closed-form modules, and it is the no-change control for batching
# work elsewhere. Pinned by name; reference reports were recorded from the
# program once, when this benchmark was defined, and live in reference/.

EXAMPLES = {
    "array_pair": "array",
    "array_synthetic": "array",
    "capacity_demo": "capacity",
    "frontend_buffer": "frontend",
    "frontend_netlist": "frontend",
    "link_crossover": "link",
    "match_step_up": "match",
    "noisefig_sweep": "noisefig",
    "validate_pair": "validate",
}

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _example_check(name: str, scenario_path: Path):
    reference = (REFERENCE_DIR / f"{name}.csv").read_text()
    if EXAMPLES[name] != "link":
        return lambda text: None if text == reference else f"{name}: report differs from reference"
    oracle = LinkOracle(json.loads(scenario_path.read_text()))

    def check(text: str) -> str | None:
        # Every row but `optimal` must match the reference bytes; the optimal
        # row is checked as a lower bound, so an exact optimizer still passes.
        got, want = text.splitlines(), reference.splitlines()
        if [l for l in got if not l.startswith("optimal,")] != [l for l in want if not l.startswith("optimal,")]:
            return f"{name}: report differs from reference"
        return oracle.check_report(text)

    return check


def examples(root: Path, work: Path, seed: int) -> Operation:
    # The seed does not apply: the scenarios are the shipped files.
    calls, checks = [], {}
    for name, kind in EXAMPLES.items():
        scenario = root / "scenarios" / f"{name}.json"
        out = work / f"example_{name}.csv"
        calls.append(Call(name, [kind, "--scenario", str(scenario), "--out", str(out)], out))
        checks[name] = _example_check(name, scenario)
    return Operation(calls, checks)


WORKLOADS = {
    "array_sweep": array_sweep,
    "link_sweep": link_sweep,
    "validate_csv": validate_csv,
    "examples": examples,
}
