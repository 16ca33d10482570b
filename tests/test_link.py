import math

import numpy as np
import pytest

from rxfront.core import (
    OPEN_CIRCUIT,
    NumericalError,
    SingularCircuitError,
    TheveninSource,
    ValidationError,
)
from rxfront.link import (
    AmplifierNoiseModel,
    GridSpec,
    SingleLink,
    divided_voltage,
    extracted_power,
    max_available_power,
    optimize_load,
    output_snr,
    snr_matched,
    snr_ratio_oc_over_match,
)

from oracles import K_BOLTZ, output_snr_ref, snr_ratio_ref


def test_extracted_power_matched_example():
    src = TheveninSource(1.0, 50.0)
    assert extracted_power(src, 50.0) == 0.0025
    assert max_available_power(src) == 0.0025


def test_extracted_power_open_circuit_is_exact_zero():
    assert extracted_power(TheveninSource(1.0, 50 + 10j), OPEN_CIRCUIT) == 0.0


def test_matched_load_attains_available_power():
    rng = np.random.default_rng(3)
    for _ in range(100):
        z = complex(rng.uniform(0.1, 300), rng.uniform(-300, 300))
        v = complex(rng.normal(), rng.normal())
        src = TheveninSource(v, z)
        p_match = extracted_power(src, z.conjugate())
        p_max = max_available_power(src)
        assert math.isclose(p_match, p_max, rel_tol=1e-12)
        # any other load extracts less
        other = complex(rng.uniform(0, 300), rng.uniform(-300, 300))
        assert extracted_power(src, other) <= p_max * (1 + 1e-12)


def test_divided_voltage_example():
    assert divided_voltage(TheveninSource(1.0, 50.0), 100j) == 0.8 + 0.4j
    assert divided_voltage(TheveninSource(2.0, 50.0), OPEN_CIRCUIT) == 2 + 0j


def test_divider_series_singularity():
    with pytest.raises(SingularCircuitError):
        divided_voltage(TheveninSource(1.0, 0 + 50j), -50j)
    with pytest.raises(SingularCircuitError):
        extracted_power(TheveninSource(1.0, 0 + 50j), -50j)


def test_extracted_power_rejects_active_load():
    with pytest.raises(ValidationError):
        extracted_power(TheveninSource(1.0, 50.0), -10 + 0j)


def test_available_power_unbounded_for_lossless_source():
    with pytest.raises(NumericalError):
        max_available_power(TheveninSource(1.0, 0 + 50j))


def test_output_snr_open_circuit_value():
    link = SingleLink(50.0, 10.0, 1e-12)
    amp = AmplifierNoiseModel(10.0, 1e-9, 290.0)
    # no load current: signal g^2 |z_rt|^2 s_it over amplifier noise alone
    assert output_snr(link, amp, OPEN_CIRCUIT) == 100.0 * 100.0 * 1e-12 / 1e-9
    assert output_snr(link, AmplifierNoiseModel(10.0, 0.0, 290.0), OPEN_CIRCUIT) == math.inf


def test_output_snr_against_reference_formula():
    rng = np.random.default_rng(17)
    for _ in range(300):
        z_r = complex(rng.uniform(0.1, 200), rng.uniform(-200, 200))
        z_l = complex(rng.uniform(0.0, 200), rng.uniform(-200, 200))
        g = rng.uniform(0.5, 50)
        t = rng.uniform(30, 600)
        n_na = 10.0 ** rng.uniform(-12, -6)
        z_rt = complex(rng.normal(), rng.normal())
        s_it = 10.0 ** rng.uniform(-14, -10)
        link = SingleLink(z_r, z_rt, s_it)
        amp = AmplifierNoiseModel(g, n_na, t)
        got = output_snr(link, amp, z_l)
        want = output_snr_ref(z_r, z_l, g, n_na, t, abs(z_rt) ** 2 * s_it)
        assert math.isclose(got, want, rel_tol=1e-12)


def test_snr_matched_equals_output_snr_at_conjugate():
    rng = np.random.default_rng(29)
    for _ in range(200):
        z_r = complex(rng.uniform(0.1, 200), rng.uniform(-200, 200))
        link = SingleLink(z_r, complex(rng.normal(), rng.normal()), 1e-12)
        amp = AmplifierNoiseModel(rng.uniform(1, 40), 10.0 ** rng.uniform(-12, -7), 290.0)
        # at z_l = conj(z_r) both dividers have magnitude^2 |z_r|^2 / (4 R^2)
        div2 = abs(z_r) ** 2 / (4.0 * z_r.real**2)
        s_voc = abs(link.z_rt) ** 2 * link.s_it
        thermal = 2.0 * K_BOLTZ * amp.temperature * z_r.real
        want = amp.gain**2 * s_voc * div2 / (amp.n_na + amp.gain**2 * div2 * thermal)
        assert math.isclose(snr_matched(link, amp), want, rel_tol=1e-12)


def test_snr_ratio_closed_form_matches_reference():
    link = SingleLink(50.0, 10.0, 1e-12)
    amp = AmplifierNoiseModel(10.0, 1e-9, 290.0)
    assert snr_ratio_oc_over_match(link, amp) == snr_ratio_ref(50 + 0j, 10.0, 1e-9, 290.0)


def test_snr_ratio_rejects_degenerate_inputs():
    amp = AmplifierNoiseModel(10.0, 1e-9, 290.0)
    with pytest.raises(ValidationError):
        snr_ratio_oc_over_match(SingleLink(0 + 50j, 10.0, 1e-12), amp)
    noiseless = AmplifierNoiseModel(10.0, 0.0, 290.0)
    with pytest.raises(NumericalError):
        snr_ratio_oc_over_match(SingleLink(50.0, 10.0, 1e-12), noiseless)


def test_snr_matched_rejects_lossless_source():
    with pytest.raises(ValidationError):
        snr_matched(SingleLink(0 + 50j, 10.0, 1e-12), AmplifierNoiseModel(10.0, 1e-9, 290.0))


def test_optimize_load_prefers_open_when_amp_noise_dominates():
    link = SingleLink(50.0, 10.0, 1e-12)
    amp = AmplifierNoiseModel(10.0, 1e-9, 290.0)  # Johnson term tiny vs n_na
    best, snr = optimize_load(link, amp, GridSpec(200.0, 200.0, 41, 41))
    assert best is OPEN_CIRCUIT
    assert snr == output_snr(link, amp, OPEN_CIRCUIT)


def test_optimize_load_can_beat_open_for_reactive_source():
    # nearly reactive source: matched load wins by about |Z|^2 / (4 Re^2)
    link = SingleLink(1 + 100j, 10.0, 1e-12)
    amp = AmplifierNoiseModel(10.0, 1e-9, 290.0)
    best, snr = optimize_load(link, amp, GridSpec(5.0, 120.0, 21, 121))
    assert best is not OPEN_CIRCUIT
    assert snr > output_snr(link, amp, OPEN_CIRCUIT)


def test_optimize_load_respects_include_open_flag():
    link = SingleLink(50.0, 10.0, 1e-12)
    amp = AmplifierNoiseModel(10.0, 1e-9, 290.0)
    best, _ = optimize_load(link, amp, GridSpec(100.0, 0.0, 11, 1, include_open=False))
    assert best is not OPEN_CIRCUIT


def test_optimize_load_empty_search_is_an_error():
    link = SingleLink(50.0, 10.0, 1e-12)
    amp = AmplifierNoiseModel(10.0, 1e-9, 290.0)
    with pytest.raises(ValidationError):
        optimize_load(link, amp, GridSpec(0.0, 0.0, 0, 0, include_open=False))


def test_grid_spec_validation():
    with pytest.raises(ValidationError):
        GridSpec(-1.0, 0.0, 5, 5)
    with pytest.raises(ValidationError):
        GridSpec(1.0, 1.0, -2, 5)


def test_model_validation():
    with pytest.raises(ValidationError):
        SingleLink(-5.0, 10.0, 1e-12)
    with pytest.raises(ValidationError):
        SingleLink(50.0, 10.0, -1e-12)
    with pytest.raises(ValidationError):
        AmplifierNoiseModel(0.0, 1e-9, 290.0)
    with pytest.raises(ValidationError):
        AmplifierNoiseModel(10.0, -1e-9, 290.0)
    with pytest.raises(ValidationError):
        AmplifierNoiseModel(10.0, 1e-9, 0.0)
