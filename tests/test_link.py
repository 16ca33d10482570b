import csv
import io
import json
import math

import numpy as np
import pytest

from rxfront import cli
from rxfront.core import (
    OPEN_CIRCUIT,
    NumericalError,
    SingularCircuitError,
    TheveninSource,
    ValidationError,
)
from rxfront.link import (
    AmplifierNoiseModel,
    SearchBox,
    SingleLink,
    divided_voltage,
    extracted_power,
    max_available_power,
    optimize_load,
    output_snr,
    snr_matched,
    snr_ratio_oc_over_match,
)

from oracles import (
    K_BOLTZ,
    divided_voltage_scalar,
    extracted_power_scalar,
    output_snr_ref,
    output_snr_scalar,
    snr_grid_ref,
    snr_ratio_ref,
)


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
    best, snr = optimize_load(link, amp, SearchBox(200.0, 200.0))
    assert best is OPEN_CIRCUIT
    assert snr == output_snr(link, amp, OPEN_CIRCUIT)


def test_optimize_load_can_beat_open_for_reactive_source():
    # nearly reactive source: matched load wins by about |Z|^2 / (4 Re^2)
    link = SingleLink(1 + 100j, 10.0, 1e-12)
    amp = AmplifierNoiseModel(10.0, 1e-9, 290.0)
    best, snr = optimize_load(link, amp, SearchBox(5.0, 120.0))
    assert best is not OPEN_CIRCUIT
    assert snr > output_snr(link, amp, OPEN_CIRCUIT)


def test_optimize_load_respects_include_open_flag():
    link = SingleLink(50.0, 10.0, 1e-12)
    amp = AmplifierNoiseModel(10.0, 1e-9, 290.0)
    best, _ = optimize_load(link, amp, SearchBox(100.0, 0.0, include_open=False))
    assert best is not OPEN_CIRCUIT


def test_search_box_validation():
    with pytest.raises(ValidationError):
        SearchBox(-1.0, 0.0)
    with pytest.raises(ValidationError):
        SearchBox(1.0, math.inf)


def _run_optimum(tmp_path, z_r, box) -> tuple:
    """Exit code of ``rxfront link`` with an optimize section, and its optimal row."""
    scenario = {
        "name": "optimum",
        "link": {
            "z_r_ohms": {"re": z_r.real, "im": z_r.imag},
            "z_rt_ohms": {"re": 10, "im": 0},
            "s_it_a2_per_hz": 1e-12,
            "loads": [{"kind": "open_circuit"}],
            "optimize": {**box, "n_re": 3, "n_im": 3},
        },
        "amplifier": {"gain": 10, "n_na_v2_per_hz": 1e-9, "temp_kelvin": 290},
    }
    path, out = tmp_path / "optimum.json", tmp_path / "optimum.csv"
    path.write_text(json.dumps(scenario))
    code = cli.main(["link", "--scenario", str(path), "--out", str(out)])
    if code != 0:
        return code, None
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert rows[-1]["label"] == "optimal"
    return code, rows[-1]


def test_optimal_load_is_lossless_and_exact(tmp_path):
    # the open circuit's SNR grows by |z_r|^2 / R_r^2 at z_l = -j |z_r|^2 / X_r,
    # a load that extracts no power
    z_r = 5 + 37j
    _, row = _run_optimum(tmp_path, z_r, {"r_max_ohms": 500, "x_max_ohms": 500})
    assert row["z_l_re_ohms"] == "0" and row["extracted_power_w_per_hz"] == "0"
    snr_oc = 10.0**2 * 10.0**2 * 1e-12 / 1e-9
    assert math.isclose(float(row["snr"]), snr_oc * abs(z_r) ** 2 / z_r.real**2, rel_tol=1e-12)
    link, amp = SingleLink(z_r, 10.0, 1e-12), AmplifierNoiseModel(10.0, 1e-9, 290.0)
    best, _ = optimize_load(link, amp, SearchBox(500.0, 500.0))
    assert complex(best) == complex(0.0, -(z_r.real * z_r.real + z_r.imag * z_r.imag) / z_r.imag)


def test_optimize_load_beats_every_grid_cell():
    rng = np.random.default_rng(43)
    for case in range(40):
        link = SingleLink(complex(rng.uniform(0.1, 200), rng.uniform(-300, 300)),
                          complex(rng.normal(), rng.normal()), 10.0 ** rng.uniform(-14, -10))
        amp = AmplifierNoiseModel(rng.uniform(0.5, 50), 10.0 ** rng.uniform(-14, -6), rng.uniform(30, 600))
        r_max, x_max = (rng.uniform(0, 500) if case % 5 else 0.0 for _ in range(2))
        best, snr = optimize_load(link, amp, SearchBox(r_max, x_max, include_open=False))
        z = complex(best)
        assert 0.0 <= z.real <= r_max and abs(z.imag) <= x_max
        assert snr == output_snr(link, amp, z)
        s_voc = abs(link.z_rt) ** 2 * link.s_it
        grid = snr_grid_ref(np.linspace(0.0, r_max, 31), np.linspace(-x_max, x_max, 31),
                            link.z_r.real, link.z_r.imag, s_voc, amp.gain**2, amp.n_na,
                            2.0 * K_BOLTZ * amp.temperature)
        assert snr >= grid.max() * (1.0 - 1e-12), case


AMP = AmplifierNoiseModel(10.0, 1e-9, 290.0)
NOISELESS = AmplifierNoiseModel(10.0, 0.0, 290.0)


def test_optimize_load_with_resistive_receiver():
    # X_r = 0: no load beats the open circuit; without it, a corner wins
    link = SingleLink(50.0, 10.0, 1e-12)
    assert optimize_load(link, AMP, SearchBox(200.0, 100.0))[0] is OPEN_CIRCUIT
    best, _ = optimize_load(link, AMP, SearchBox(200.0, 100.0, include_open=False))
    assert complex(best) in {complex(r, x) for r in (0.0, 200.0) for x in (-100.0, 100.0)}


def test_lossless_resonance_in_the_box_is_unbounded(tmp_path):
    with pytest.raises(NumericalError, match="unbounded"):
        optimize_load(SingleLink(37j, 10.0, 1e-12), AMP, SearchBox(0.0, 37.0))
    assert _run_optimum(tmp_path, 37j, {"r_max_ohms": 0, "x_max_ohms": 40}) == (3, None)
    # a resonance outside the box leaves a bounded SNR
    best, _ = optimize_load(SingleLink(37j, 10.0, 1e-12), AMP, SearchBox(10.0, 36.0, include_open=False))
    assert complex(best) == -36j


def test_optimize_load_with_noiseless_amplifier():
    # n_na = 0: every R = 0 load scores inf, and the usual ties decide
    link = SingleLink(5 + 37j, 10.0, 1e-12)
    assert optimize_load(link, NOISELESS, SearchBox(10.0, 20.0)) == (OPEN_CIRCUIT, math.inf)
    best, snr = optimize_load(link, NOISELESS, SearchBox(10.0, 20.0, include_open=False))
    assert (complex(best), snr) == (-20j, math.inf)


def test_zero_width_box_holds_one_load():
    link = SingleLink(5 + 37j, 10.0, 1e-12)
    best, snr = optimize_load(link, AMP, SearchBox(0.0, 0.0, include_open=False))
    assert (complex(best), snr) == (0j, 0.0)
    assert optimize_load(link, AMP, SearchBox(0.0, 0.0))[0] is OPEN_CIRCUIT
    # z_r = 0 and z_l = 0: the only load is singular
    with pytest.raises(NumericalError, match="every candidate load is singular"):
        optimize_load(SingleLink(0.0, 10.0, 1e-12), NOISELESS, SearchBox(0.0, 0.0, include_open=False))


def test_candidates_whose_squares_overflow_are_dropped():
    # the corners at R = 2e154 overflow; the R = 0 edge's optimum remains
    best, _ = optimize_load(SingleLink(5 + 37j, 10.0, 1e-12), AMP, SearchBox(2e154, 500.0, include_open=False))
    assert complex(best) == complex(0.0, -(25.0 + 37.0 * 37.0) / 37.0)


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


def _bits(values):
    """float64 bit patterns, so -0.0 differs from 0.0."""
    return np.asarray(values, dtype=float).view(np.uint64)


def _array_cases():
    rng = np.random.default_rng(41)
    for z_r in (5 + 37j, 37j, 50.0, 1e-3 + 1e3j):  # 37j: a lossless receiver
        z = rng.uniform(0.0, 500.0, 3000) + 1j * rng.uniform(-500.0, 500.0, 3000)
        z[:300] = 1j * z[:300].imag  # R = 0 loads
        z[300:330] = z[300:330].real * 1e-9 - 1j * z_r.imag  # X_l = -X_r: near singular if R_r = 0
        for amp in (AmplifierNoiseModel(10.0, 1e-9, 290.0), AmplifierNoiseModel(3.3, 0.0, 77.0)):
            yield SingleLink(z_r, 3 - 2j, 1e-12), amp, TheveninSource(0.7 - 1.3j, z_r), z


def _link_scenario(path, lnk, amp, loads):
    """Write a link scenario with one explicit load per complex in ``loads``,
    labelled z0, z1, ...; return its path."""
    def cx(z):
        return {"re": z.real, "im": z.imag}

    path.write_text(json.dumps({
        "link": {"z_r_ohms": cx(lnk.z_r), "z_rt_ohms": cx(lnk.z_rt), "s_it_a2_per_hz": lnk.s_it,
                 "loads": [{"label": f"z{i}", "kind": "explicit", "z_l_ohms": cx(complex(z))}
                           for i, z in enumerate(loads)]},
        "amplifier": {"gain": amp.gain, "n_na_v2_per_hz": amp.n_na, "temp_kelvin": amp.temperature},
    }))
    return path


def test_array_loads_match_the_scalar_formulas_bit_for_bit(tmp_path):
    # the link report's columns have the bits of the one-load formulas
    # (tests/oracles.py), per unit v_oc, with the power scaled by s_voc
    for lnk, amp, source, z in _array_cases():
        loads = z.tolist()
        scenario = cli.parse_scenario(_link_scenario(tmp_path / "loads.json", lnk, amp, loads))
        columns, _ = cli._run_link(scenario)
        unit = TheveninSource(1.0, lnk.z_r)
        s_voc = (lnk.z_rt.real**2 + lnk.z_rt.imag**2) * lnk.s_it
        assert np.array_equal(_bits(columns["z_l_re_ohms"]), _bits(z.real))
        assert np.array_equal(_bits(columns["z_l_im_ohms"]), _bits(z.imag))
        # abs() of a Python complex is hypot, which np.abs does not always match
        want = [abs(divided_voltage_scalar(unit, load)) for load in loads]
        assert np.array_equal(_bits(columns["divider_mag"]), _bits(want))
        want = [s_voc * extracted_power_scalar(unit, load) for load in loads]
        assert np.array_equal(_bits(columns["extracted_power_w_per_hz"]), _bits(want))
        want = [output_snr_scalar(lnk, amp, load) for load in loads]
        assert np.array_equal(_bits(columns["snr"]), _bits(want))
        # the public one-load calls: Python scalars with the same bits
        for load in loads[::7]:
            assert type(output_snr(lnk, amp, load)) is float
            assert type(extracted_power(source, load)) is float
            assert type(divided_voltage(source, load)) is complex
            assert _bits(output_snr(lnk, amp, load)) == _bits(output_snr_scalar(lnk, amp, load))
            assert _bits(extracted_power(source, load)) == _bits(extracted_power_scalar(source, load))
            got, want = divided_voltage(source, load), divided_voltage_scalar(source, load)
            assert _bits([got.real, got.imag]).tolist() == _bits([want.real, want.imag]).tolist()


def _error(call, *args) -> Exception:
    try:
        call(*args)
    except Exception as exc:  # whatever is raised, to compare with the scalar formula
        return exc
    raise AssertionError(f"{call.__name__} raised nothing")


def _first_bad_load(tmp_path, capsys, lnk, amp, loads) -> tuple:
    """Exit code and stderr of ``rxfront link`` over ``loads``."""
    path = _link_scenario(tmp_path / "bad.json", lnk, amp, loads)
    code = cli.main(["link", "--scenario", str(path), "--out", str(tmp_path / "bad.csv")])
    return code, capsys.readouterr().err


def test_array_errors_are_the_first_bad_loads(tmp_path, capsys):
    link = SingleLink(5 + 37j, 10.0, 1e-12)
    amp = AmplifierNoiseModel(10.0, 1e-9, 290.0)
    unit = TheveninSource(1.0, 5 + 37j)
    singular = "numerical error: load 'z1': z_r_ohms + z_l_ohms = 0: divider is singular\n"
    cases = [
        # (loads, exit code, stderr): the earliest bad load, named by its label
        ([50.0, -5 - 37j, -1.0, 1e200], 3, singular),  # negative and singular: the divider fails first
        ([50.0, 20.0, 1e200, -1.0], 3, "numerical error: load 'z2': Numerical result out of range\n"),
        ([50.0, -1.0, -5 - 37j], 1, "validation error: load 'z1': z_l_ohms must have nonnegative real part\n"),
    ]
    for loads, code, err in cases:
        assert _first_bad_load(tmp_path, capsys, link, amp, loads) == (code, err)
    # each library call raises what its one-load formula raises
    calls = [(output_snr, output_snr_scalar, (link, amp), (-5 - 37j, -1.0, 1e200)),
             (extracted_power, extracted_power_scalar, (unit,), (-5 - 37j, -1.0, 1e200)),
             (divided_voltage, divided_voltage_scalar, (unit,), (-5 - 37j,))]
    for call, scalar_call, args, bad_loads in calls:
        for load in bad_loads:
            got, want = _error(call, *args, load), _error(scalar_call, *args, load)
            assert (type(got), str(got)) == (type(want), str(want))
    assert divided_voltage(unit, -1.0) == divided_voltage_scalar(unit, -1.0)  # any finite load divides


def test_divider_underflow_is_a_division_by_zero_as_in_python_floats(tmp_path, capsys):
    # |z_r + z_l| ~ 1e-170 is not zero, but its square underflows to 0
    link = SingleLink(37j, 1.0, 1e-12)
    amp = AmplifierNoiseModel(10.0, 1e-9, 290.0)
    load = complex(1e-170, -37.0)
    with pytest.raises(ZeroDivisionError):
        output_snr_scalar(link, amp, load)
    with pytest.raises(ZeroDivisionError):
        output_snr(link, amp, load)
    with pytest.raises(ZeroDivisionError):
        extracted_power(TheveninSource(1.0, 37j), load)
    assert _first_bad_load(tmp_path, capsys, link, amp, [1.0, load]) == (
        3, "numerical error: load 'z1': float division by zero\n")


def test_optimal_load_extracts_no_power_on_random_links():
    # Whenever the lossless optimum -j |z_r|^2 / X_r fits in the box, the
    # SNR-optimal load is that lossless load: R = 0, no power extracted, and
    # the open circuit's SNR raised by |z_r|^2 / R_r^2.
    rng = np.random.default_rng(59)
    for case in range(2000):
        r_r, x_r = rng.uniform(0.1, 200), rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 300)
        link = SingleLink(complex(r_r, x_r), complex(rng.normal(), rng.normal()), 10.0 ** rng.uniform(-14, -10))
        amp = AmplifierNoiseModel(rng.uniform(0.5, 50), 10.0 ** rng.uniform(-14, -6), rng.uniform(30, 600))
        abs2 = r_r * r_r + x_r * x_r
        x_max = abs2 / abs(x_r) * (1.0 if case % 10 == 0 else rng.uniform(1.0, 4.0))
        r_max = 0.0 if case % 7 == 0 else rng.uniform(0, 500)
        best, snr = optimize_load(link, amp, SearchBox(r_max, x_max, include_open=case % 2 == 0))
        assert best is not OPEN_CIRCUIT and best.re == 0.0, case
        assert extracted_power(TheveninSource(1.0, link.z_r), best) == 0.0, case
        snr_oc = output_snr(link, amp, OPEN_CIRCUIT)
        assert math.isclose(snr, snr_oc * abs2 / (r_r * r_r), rel_tol=1e-12), case
