"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single criterion line on success; `pytest -v` therefore
shows one pass/fail verdict per criterion. Tolerances are pinned here and
are not derived from the implementation under test.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from rxfront import (
    OPEN_CIRCUIT,
    AmplifierNoiseModel,
    ArrayModel,
    AwgnChannelSpec,
    FrequencyGrid,
    ImpedanceMatrixSeries,
    OpAmpModel,
    SignalGenerator,
    SingleLink,
    TheveninSource,
    TerminationStrategy,
    TransformerMatch,
    VoltageAmplifierStage,
    cli,
    divided_voltage,
    eb_n0,
    extracted_power,
    friis_gain,
    johnson_density,
    make_synthetic_model,
    max_available_power,
    mna_solve,
    noise_factor,
    open_circuit_voltages,
    optimal_rs_for_noise_factor,
    optimal_turns_ratio,
    output_snr,
    output_snr_friis,
    parse_netlist,
    snr_matched,
    snr_ratio_oc_over_match,
    snr_with_transformer,
    solve_buffer,
    solve_constant_current,
    solve_inside_out,
    terminate_array,
    termination_matrix,
)
from oracles import (
    K_BOLTZ,
    buffer_netlist,
    constant_current_netlist,
    full_conjugate_closed_form_ref,
    golden_section_min,
    sum_power_batch_ref,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = ROOT / "scenarios"
LN2 = math.log(2.0)


def _rel(a, b):
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0 else abs(a - b) / scale


def _rel_c(a, b):
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0 else abs(a - b) / scale


def _current_rel(got, want, source):
    # high-gain draws push i_source toward zero by design, where plain
    # relative error saturates at the eps*|v_oc|/|z_s| solve floor; measure
    # against the source's short-circuit current scale instead
    scale = max(abs(got), abs(want), abs(source.v_oc) / abs(source.z_series))
    return 0.0 if scale == 0 else abs(got - want) / scale


def test_criterion_01_open_over_match_identity():
    rng = np.random.default_rng(11)
    links = []
    amps = []
    for _ in range(1000):
        z_r = complex(10.0 ** rng.uniform(-1, 3), rng.uniform(-300, 300))
        z_rt = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
        links.append(SingleLink(z_r, z_rt, 10.0 ** rng.uniform(-15, -9)))
        amps.append(
            AmplifierNoiseModel(
                10.0 ** rng.uniform(0, 3),
                10.0 ** rng.uniform(-20, -9),
                rng.uniform(4, 400),
            )
        )
    start = time.perf_counter()
    worst = 0.0
    for link, amp in zip(links, amps):
        closed = snr_ratio_oc_over_match(link, amp)
        quotient = output_snr(link, amp, OPEN_CIRCUIT) / snr_matched(link, amp)
        worst = max(worst, _rel(closed, quotient))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    print("criterion 1: PASS")


def test_criterion_02_crossover_golden_reports(tmp_path, capsys):
    def run_golden(stem):
        out = tmp_path / f"{stem}.csv"
        code = cli.main(
            ["link", "--scenario", str(GOLDEN / f"{stem}.json"), "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        fresh = out.read_bytes()
        assert fresh == (GOLDEN / f"{stem}.csv").read_bytes()
        open_row = [
            l for l in fresh.decode().splitlines() if l.startswith("open,")
        ][0]
        tag = [c for c in open_row.split(",") if c.startswith("oc_over_match=")][0]
        return float(tag.split("=")[1])

    ratio_real = run_golden("link_nna_dominated")
    # fixture values: z_r = 50 ohm resistive, gain 10, n_na 1e-9, 290 K
    johnson_term = 10.0**2 * johnson_density(290.0, 50.0) / (4.0 * 1e-9)
    assert 3.99 * (1.0 + johnson_term) < ratio_real < 4.01 * (1.0 + johnson_term)

    ratio_reactive = run_golden("link_reactive")
    assert abs(1.0 / abs(1.0 + 100.0j) - 1e-2) < 1e-4  # fixture is 1% resistive
    assert ratio_reactive < 0.01
    print("criterion 2: PASS")


def test_criterion_03_noise_factor_calculus():
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    for _ in range(300):
        gen = SignalGenerator(
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) or 1.0,
            10.0 ** rng.uniform(-1, 4),
            rng.uniform(40, 400),
        )
        amp = VoltageAmplifierStage(
            10.0 ** rng.uniform(0, 3),
            10.0 ** rng.uniform(-20, -12),
            10.0 ** rng.uniform(0, 6),
            10.0 ** rng.uniform(0, 3),
        )
        snr_i = gen.v_s.real**2 + gen.v_s.imag**2
        snr_i /= 2.0 * K_BOLTZ * gen.temperature * gen.r_s
        product = noise_factor(gen, amp) * output_snr_friis(gen, amp)
        assert _rel(product, snr_i) <= 1e-12

    # noise factor and output SNR must not depend on the output resistance
    gen = SignalGenerator(1e-6, 50.0, 290.0)
    stages = [
        VoltageAmplifierStage(10.0, 1e-17, 1000.0, r_out)
        for r_out in (1.0, 50.0, 1e6)
    ]
    factors = {noise_factor(gen, s) for s in stages}
    snrs = {output_snr_friis(gen, s) for s in stages}
    assert len(factors) == 1 and len(snrs) == 1

    for _ in range(100):
        gain = 10.0 ** rng.uniform(0, 2)
        n_na = 10.0 ** rng.uniform(-19, -14)
        r_l = 10.0 ** rng.uniform(1, 5)
        temp = rng.uniform(40, 400)
        amp = VoltageAmplifierStage(gain, n_na, r_l, 75.0)
        closed = optimal_rs_for_noise_factor(amp, temp)

        def factor_at(log_rs):
            probe = SignalGenerator(1.0, math.exp(log_rs), temp)
            return noise_factor(probe, amp)

        found = math.exp(
            golden_section_min(factor_at, math.log(1e-9), math.log(10.0 * r_l))
        )
        assert _rel(closed, found) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print("criterion 3: PASS")


def test_criterion_04_gain_and_snr_optimality_limits():
    gain, n_na, r_out, temp = 10.0, 1e-17, 75.0, 290.0
    v_s = 1e-6

    # gain over source resistance peaks where r_s equals the input load
    r_l = 1000.0
    amp = VoltageAmplifierStage(gain, n_na, r_l, r_out)
    grid = np.linspace(10.0, 4000.0, 400)
    gains = [friis_gain(SignalGenerator(v_s, rs, temp), amp) for rs in grid]
    step = grid[1] - grid[0]
    peak = int(np.argmax(gains))
    assert abs(grid[peak] - r_l) <= step
    closed_peak = gain**2 * r_l / (4.0 * r_out)
    assert _rel(friis_gain(SignalGenerator(v_s, r_l, temp), amp), closed_peak) <= 1e-12

    # unloaded input is the gain supremum over the input load resistance
    r_s = 50.0
    gen = SignalGenerator(v_s, r_s, temp)
    unloaded = friis_gain(gen, VoltageAmplifierStage(gain, n_na, math.inf, r_out))
    assert _rel(unloaded, gain**2 * r_s / r_out) <= 1e-12
    finite = [
        friis_gain(gen, VoltageAmplifierStage(gain, n_na, rl, r_out))
        for rl in (10.0, 100.0, 1e3, 1e4, 1e6)
    ]
    assert all(a < b for a, b in zip(finite, finite[1:]))
    assert finite[-1] < unloaded

    # output SNR peaks at a lossless source, value g^2 |v|^2 / n_na
    amp = VoltageAmplifierStage(gain, n_na, r_l, r_out)
    rs_grid = np.linspace(0.0, 500.0, 251)
    snrs = [output_snr_friis(SignalGenerator(v_s, rs, temp), amp) for rs in rs_grid]
    assert int(np.argmax(snrs)) == 0
    assert _rel(snrs[0], gain**2 * v_s**2 / n_na) <= 1e-12

    # with the input unloaded, SNR out hits the source-thermal-limited form
    snr_inf = output_snr_friis(gen, VoltageAmplifierStage(gain, n_na, math.inf, r_out))
    closed_inf = gain**2 * v_s**2 / (
        2.0 * K_BOLTZ * temp * r_s * gain**2 + n_na
    )
    assert _rel(snr_inf, closed_inf) <= 1e-12
    snr_finite = [
        output_snr_friis(gen, VoltageAmplifierStage(gain, n_na, rl, r_out))
        for rl in (10.0, 100.0, 1e3, 1e4, 1e6)
    ]
    assert all(a < b for a, b in zip(snr_finite, snr_finite[1:]))
    assert snr_finite[-1] < snr_inf

    # unloaded-input noise factor closed form, approached from below in r_l
    f_inf = noise_factor(gen, VoltageAmplifierStage(gain, n_na, math.inf, r_out))
    assert _rel(f_inf, 1.0 + n_na / (2.0 * K_BOLTZ * temp * r_s * gain**2)) <= 1e-12
    f_finite = [
        noise_factor(gen, VoltageAmplifierStage(gain, n_na, rl, r_out))
        for rl in (10.0, 100.0, 1e3, 1e4, 1e6)
    ]
    assert all(a > b for a, b in zip(f_finite, f_finite[1:]))
    assert all(f > f_inf for f in f_finite)

    # noise-factor minimizing source resistance lands on the closed form
    amp = VoltageAmplifierStage(gain, n_na, r_l, r_out)
    rs_star = optimal_rs_for_noise_factor(amp, temp)
    sweep = np.linspace(0.2 * rs_star, 3.0 * rs_star, 301)
    factors = [noise_factor(SignalGenerator(v_s, rs, temp), amp) for rs in sweep]
    trough = int(np.argmin(factors))
    assert abs(sweep[trough] - rs_star) <= sweep[1] - sweep[0]
    print("criterion 4: PASS")


def _mna_buffer(source, a, z_id, z_cm, r_out):
    text = buffer_netlist(source.v_oc, source.z_series, a, z_id, z_cm, r_out)
    sol = mna_solve(parse_netlist(text))
    return sol.voltage(3), -sol.element_current("V1")


def _mna_constant_current(source, a, z_id, z_cm, r_out, v_c, r_c):
    text, _, o_node = constant_current_netlist(
        source.v_oc, source.z_series, a, z_id, z_cm, r_out, v_c, r_c
    )
    sol = mna_solve(parse_netlist(text))
    return sol.voltage(o_node), -sol.element_current("Vs")


def test_criterion_05_vanishing_extraction_and_mna_oracle():
    source = TheveninSource(1.0, 100.0 + 25.0j)
    p_max = max_available_power(source)
    solvers = {
        "buffer": lambda amp: solve_buffer(source, amp),
        "constant_current": lambda amp: solve_constant_current(source, amp, 0j, 1e9),
        "inside_out": lambda amp: solve_inside_out(source, amp),
    }
    for label, solve in solvers.items():
        powers = []
        for k in range(2, 9):
            amp = OpAmpModel(10.0**k, 1e9 + 0j, None, 50.0)
            powers.append(solve(amp).p_extracted)
        assert all(a > b for a, b in zip(powers, powers[1:])), label
        assert powers[-1] < 1e-12 * p_max, label

    rng = np.random.default_rng(57)
    for _ in range(200):
        src = TheveninSource(
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            complex(10.0 ** rng.uniform(0, 3), rng.uniform(-200, 200)),
        )
        a = 10.0 ** rng.uniform(2, 4)
        z_id = complex(10.0 ** rng.uniform(3, 6), rng.uniform(-1e3, 1e3))
        z_cm = (
            None
            if rng.random() < 0.5
            else complex(10.0 ** rng.uniform(3, 6), rng.uniform(-1e3, 1e3))
        )
        r_out = 0.0 if rng.random() < 0.5 else rng.uniform(1, 100)
        amp = OpAmpModel(a, z_id, z_cm, r_out)

        got = solve_buffer(src, amp)
        want_v, want_i = _mna_buffer(src, a, z_id, z_cm, r_out)
        assert _rel_c(got.v_out, want_v) <= 1e-9
        assert _current_rel(got.i_source, want_i, src) <= 1e-9

        v_c = 0j if rng.random() < 0.5 else complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        r_c = math.inf if rng.random() < 0.5 else 10.0 ** rng.uniform(3, 9)
        got = solve_constant_current(src, amp, v_c, r_c)
        want_v, want_i = _mna_constant_current(src, a, z_id, z_cm, r_out, v_c, r_c)
        assert _rel_c(got.v_out, want_v) <= 1e-9
        assert _current_rel(got.i_source, want_i, src) <= 1e-9

        got = solve_inside_out(src, amp)
        want_v, want_i = _mna_constant_current(src, a, z_id, z_cm, r_out, 0j, math.inf)
        assert _rel_c(got.v_out, want_v) <= 1e-9
        assert _current_rel(got.i_source, want_i, src) <= 1e-9
    print("criterion 5: PASS")


def test_criterion_06_inside_out_impedance_multiplication():
    source = TheveninSource(1.0, 100.0 + 25.0j)
    gains = [1e2, 1e3, 1e4, 1e5]
    ratios = []
    for a in gains:
        amp = OpAmpModel(a, 1e12 + 0j, 1e9 + 0j, 50.0)
        z_io = solve_inside_out(source, amp).z_effective
        z_buf = solve_buffer(source, amp).z_effective
        ratios.append(abs(z_io) / abs(z_buf))
    slope = np.polyfit(np.log10(gains), np.log10(ratios), 1)[0]
    assert 0.95 <= slope <= 1.05
    print("criterion 6: PASS")


def test_criterion_07_transformer_step_up():
    best = optimal_turns_ratio(1e12, 100.0)
    assert best == 1e5

    link = SingleLink(100.0 + 0.0j, 10.0 + 0.0j, 1e-12)
    amp = AmplifierNoiseModel(1.0, 1e-12, 290.0)
    ratios = best * 10.0 ** np.linspace(-1.0, 1.0, 51)
    snrs = [
        snr_with_transformer(link, 1e12, amp, TransformerMatch(n, True))
        for n in ratios
    ]
    peak = int(np.argmax(snrs))
    assert peak == 25
    assert all(a < b for a, b in zip(snrs[: peak + 1], snrs[1 : peak + 1]))
    assert all(a > b for a, b in zip(snrs[peak:], snrs[peak + 1 :]))
    print("criterion 7: PASS")


def test_criterion_08_array_reductions_and_unbeaten_optimum():
    start = time.perf_counter()

    z_t, z_rt, z_r = 40.0 + 3.0j, 12.0 - 4.0j, 73.0 + 42.5j
    i_t = 0.8 - 0.2j
    zms = ImpedanceMatrixSeries(
        FrequencyGrid((1e6,)),
        np.array([[[z_t, z_rt], [z_rt, z_r]]], dtype=complex),
        (1, 1),
    )
    model = ArrayModel(zms, np.array([[i_t]]))
    v_oc = z_rt * i_t
    source = TheveninSource(v_oc, z_r)
    result = terminate_array(model, TerminationStrategy("per_antenna_conjugate"))
    v_array = result.voltages[0, 0]
    p_array = result.power[0]
    assert _rel_c(v_array, divided_voltage(source, z_r.conjugate())) <= 1e-12
    assert _rel(p_array, extracted_power(source, z_r.conjugate())) <= 1e-12
    assert _rel(p_array, max_available_power(source)) <= 1e-12

    full = TerminationStrategy("full_conjugate")
    rng = np.random.default_rng(83)
    for k in (2, 4, 8):
        arr = make_synthetic_model(1, k, 50.0 + 5.0j, 5.0, 0.5, [1e6], rng=rng)
        z_r_mat = arr.zms.z_r[0]
        v = open_circuit_voltages(arr)[0]
        solved = terminate_array(arr, full)
        via_divider = solved.voltages[0]
        closed = full_conjugate_closed_form_ref(z_r_mat, v)
        scale = max(np.abs(closed).max(), np.abs(via_divider).max())
        assert np.abs(via_divider - closed).max() <= 1e-10 * scale

        base = solved.power[0]
        z_l = termination_matrix(full, z_r_mat)
        eig_min = np.linalg.eigvalsh(z_l.real).min()
        deltas = rng.normal(size=(500, k, k)) + 1j * rng.normal(size=(500, k, k))
        deltas = deltas + np.transpose(deltas, (0, 2, 1))
        deltas *= 0.4 * eig_min / np.abs(deltas).sum(axis=(1, 2))[:, None, None]
        rivals = sum_power_batch_ref(z_r_mat, z_l + deltas, v)
        assert (rivals <= base * (1.0 + 1e-12)).all()

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print("criterion 8: PASS")


def test_criterion_09_energy_per_bit_floor():
    rng = np.random.default_rng(97)
    for _ in range(1000):
        spec = AwgnChannelSpec(
            power=10.0 ** rng.uniform(-6, 3),
            bandwidth=10.0 ** rng.uniform(-3, 6),
            noise_density=10.0 ** rng.uniform(-9, 0),
        )
        assert eb_n0(spec) > LN2

    sweep = [
        eb_n0(AwgnChannelSpec(power=1.0, bandwidth=b, noise_density=1.0))
        for b in np.logspace(0.0, 6.0, 61)
    ]
    assert all(a > b for a, b in zip(sweep, sweep[1:]))
    assert sweep[-1] - LN2 < 1e-3 * LN2
    print("criterion 9: PASS")


def test_criterion_10_deterministic_reports(tmp_path, capsys):
    cases = {
        "validate": "validate_pair.json",
        "capacity": "capacity_demo.json",
        "link": "link_crossover.json",
        "noisefig": "noisefig_sweep.json",
        "frontend": "frontend_buffer.json",
        "match": "match_step_up.json",
        "array": "array_synthetic.json",
    }
    for sub, fname in cases.items():
        outputs = []
        for tag, jobs in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / f"{sub}_{tag}.csv"
            code = cli.main(
                [
                    sub,
                    "--scenario",
                    str(SCENARIOS / fname),
                    "--jobs",
                    jobs,
                    "--out",
                    str(out),
                ]
            )
            capsys.readouterr()
            assert code == 0, sub
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], sub
    print("criterion 10: PASS")
