import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from rxfront.core import ValidationError
from rxfront.noisefig import (
    SignalGenerator,
    VoltageAmplifierStage,
    _factor_and_figure,
    available_noise_power,
    available_signal_power,
    friis_gain,
    input_snr,
    noise_factor,
    optimal_rs_for_noise_factor,
    output_snr_friis,
)

import exact
from oracles import golden_section_min


def test_available_powers():
    gen = SignalGenerator(1e-6, 50.0, 290.0)
    assert available_signal_power(gen) == 1e-12 / (4 * 50.0)
    assert available_noise_power(gen) == 2.00194105e-21  # kT/2 at 290 K
    assert input_snr(gen) == available_signal_power(gen) / available_noise_power(gen)


def test_zero_source_resistance_edge():
    gen = SignalGenerator(1e-6, 0.0, 290.0)
    assert available_signal_power(gen) == math.inf
    assert input_snr(gen) == math.inf
    assert available_signal_power(SignalGenerator(0.0, 0.0, 290.0)) == 0.0


def test_friis_gain_example():
    gen = SignalGenerator(1e-6, 50.0, 290.0)
    amp = VoltageAmplifierStage(10.0, 1e-17, 100.0, 50.0)
    # (g^2 R_s/R_o)(R_L/(R_s+R_L))^2 = 400/9
    assert math.isclose(friis_gain(gen, amp), 44.44444444444444, rel_tol=1e-14)


def test_friis_gain_infinite_load():
    gen = SignalGenerator(1e-6, 50.0, 290.0)
    amp = VoltageAmplifierStage(10.0, 1e-17, math.inf, 50.0)
    assert friis_gain(gen, amp) == 100.0


def _assert_exact(gen, amp):
    """friis_gain, output_snr_friis, noise_factor and the noise figure are
    their exact values (tests/exact.py) to 12 digits, and within 1e-15."""
    data = {"noisefig": {
        "v_s_volts": {"re": gen.v_s.real, "im": gen.v_s.imag}, "r_s_ohms": gen.r_s, "temp_kelvin": gen.temperature,
        "amp": {"gain": amp.gain, "n_na_v2_per_hz": amp.n_na, "r_out_ohms": amp.r_out},
        "r_l_sweep_ohms": ["inf" if math.isinf(amp.r_load_in) else amp.r_load_in],
    }}
    want = exact.noisefig_columns(data)
    got = {"friis_gain": friis_gain(gen, amp), "output_snr": output_snr_friis(gen, amp),
           "noise_factor": noise_factor(gen, amp), "noise_figure_db": _factor_and_figure(gen, amp)[1]}
    for column, value in got.items():
        assert exact.fmt12(value) in exact.printed(want[column][0]), (gen, amp, column, value)
        assert value == math.inf or abs(Decimal(value) - want[column][0]) <= Decimal("1e-15") * want[column][0]


def test_against_reference_formulas():
    rng = np.random.default_rng(41)
    for _ in range(200):
        g = rng.uniform(0.5, 100)
        r_s = rng.uniform(0.1, 5000)
        r_l = math.inf if rng.random() < 0.25 else rng.uniform(0.1, 5000)
        r_o = rng.uniform(0.1, 1000)
        n_na = 10.0 ** rng.uniform(-20, -14)
        t = rng.uniform(30, 600)
        gen = SignalGenerator(complex(rng.normal(), rng.normal()) * 1e-6, r_s, t)
        _assert_exact(gen, VoltageAmplifierStage(g, n_na, r_l, r_o))


def test_noise_factor_times_output_snr_is_input_snr():
    rng = np.random.default_rng(43)
    for _ in range(200):
        gen = SignalGenerator(1e-6, rng.uniform(1, 2000), rng.uniform(50, 500))
        amp = VoltageAmplifierStage(
            rng.uniform(1, 50),
            10.0 ** rng.uniform(-20, -14),
            math.inf if rng.random() < 0.3 else rng.uniform(1, 5000),
            50.0,
        )
        lhs = noise_factor(gen, amp) * output_snr_friis(gen, amp)
        assert math.isclose(lhs, input_snr(gen), rel_tol=1e-12)


def test_noise_factor_noiseless_amp_reduces_to_divider_loss():
    gen = SignalGenerator(1e-6, 50.0, 290.0)
    amp = VoltageAmplifierStage(10.0, 0.0, 150.0, 50.0)
    assert noise_factor(gen, amp) == (50.0 + 150.0) / 150.0
    assert noise_factor(gen, VoltageAmplifierStage(10.0, 0.0, math.inf, 50.0)) == 1.0


def test_noise_factor_at_least_one():
    rng = np.random.default_rng(47)
    for _ in range(100):
        gen = SignalGenerator(1e-6, rng.uniform(0.1, 1000), 290.0)
        amp = VoltageAmplifierStage(
            rng.uniform(1, 100), 10.0 ** rng.uniform(-20, -12), rng.uniform(0.1, 1e5), 50.0
        )
        assert noise_factor(gen, amp) >= 1.0


def test_zero_source_resistance_noise_factor_diverges():
    gen = SignalGenerator(1e-6, 0.0, 290.0)
    amp = VoltageAmplifierStage(10.0, 1e-17, 100.0, 50.0)
    assert noise_factor(gen, amp) == math.inf
    # but output SNR stays finite and equals g^2 |v|^2 / n_na
    assert math.isclose(output_snr_friis(gen, amp), 100.0 * 1e-12 / 1e-17, rel_tol=1e-12)


def test_optimal_source_resistance_closed_form():
    amp = VoltageAmplifierStage(10.0, 1e-17, 1000.0, 50.0)
    assert optimal_rs_for_noise_factor(amp, 290.0) == 111.0578969635529
    assert optimal_rs_for_noise_factor(
        VoltageAmplifierStage(10.0, 0.0, 1000.0, 50.0), 290.0
    ) == 0.0
    with pytest.raises(ValidationError):
        optimal_rs_for_noise_factor(VoltageAmplifierStage(10.0, 1e-17, math.inf, 50.0), 290.0)


@pytest.mark.parametrize("gain, n_na, r_load_in", [
    (10.0, 1e-17, 1000.0),  # normal: the float path
    (1e200, 1e-17, 1e200),  # 2kT r_l g^2 overflows
    (1e200, 1e-300, 1e300),  # sqrt(n_na / (2kT r_l g^2 + n_na)) is below the floats, r_s is not
])
def test_optimal_source_resistance_against_50_digits(gain, n_na, r_load_in):
    amp, t = VoltageAmplifierStage(gain, n_na, r_load_in, 50.0), 290.0
    r_l, n = Fraction(r_load_in), Fraction(n_na)
    want = float(exact.sqrt(r_l * r_l * n / (2 * exact.BOLTZMANN * Fraction(t) * r_l * Fraction(gain) ** 2 + n)))
    got = optimal_rs_for_noise_factor(amp, t)
    assert abs(got - want) <= 2 * math.ulp(want)


def test_optimal_source_resistance_is_the_minimizer():
    amp = VoltageAmplifierStage(8.0, 3e-18, 470.0, 75.0)
    t = 290.0
    rs_star = optimal_rs_for_noise_factor(amp, t)

    def f_of_rs(log_rs):
        gen = SignalGenerator(1e-6, math.exp(log_rs), t)
        return noise_factor(gen, amp)

    found = math.exp(golden_section_min(f_of_rs, math.log(1e-6), math.log(1e6)))
    assert math.isclose(found, rs_star, rel_tol=1e-6)


def test_stage_validation():
    with pytest.raises(ValidationError):
        VoltageAmplifierStage(0.0, 1e-17, 100.0, 50.0)
    with pytest.raises(ValidationError):
        VoltageAmplifierStage(10.0, -1e-17, 100.0, 50.0)
    with pytest.raises(ValidationError):
        VoltageAmplifierStage(10.0, 1e-17, 0.0, 50.0)
    with pytest.raises(ValidationError):
        VoltageAmplifierStage(10.0, 1e-17, math.nan, 50.0)
    with pytest.raises(ValidationError):
        VoltageAmplifierStage(10.0, 1e-17, 100.0, 0.0)
    with pytest.raises(ValidationError):
        SignalGenerator(1e-6, -1.0, 290.0)
    with pytest.raises(ValidationError):
        SignalGenerator(1e-6, 50.0, 0.0)


@pytest.mark.parametrize("r_s,r_l,n_na", [
    (50.0, 100.0, 1e-17),
    (1e200, 1e200, 1e-17),  # r_s * r_l overflows: the SNR printed 0
    (1e-200, 1e-200, 0.0),  # r_s * r_l underflows: the SNR printed inf
    (1e-200, 1e-200, 1e-17),  # the noise factor divided by r_s * r_l = 0
    (1e-200, 1e200, 1e-17),
])
def test_results_in_the_float_range_match_exact_arithmetic(r_s, r_l, n_na):
    _assert_exact(SignalGenerator(1e-6, r_s, 290.0), VoltageAmplifierStage(10.0, n_na, r_l, 50.0))


def test_noise_figure_near_a_noise_factor_of_1():
    # F = 1 + 2.5e-285 rounds to 1.0, so 10 log10 F would print 0, and
    # F = 1 + 2.5e-14 keeps two digits of its excess: the figure is
    # 10 log1p(F - 1) / ln 10, from the excess F - 1
    gen = SignalGenerator(1e-6, 50.0, 290.0)
    for amp in (VoltageAmplifierStage(10.0, 1e-300, math.inf, 50.0), VoltageAmplifierStage(10.0, 1e-30, 1e20, 50.0)):
        _assert_exact(gen, amp)
        assert 0.0 < _factor_and_figure(gen, amp)[1] < 1e-12
