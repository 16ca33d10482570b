import math

import numpy as np
import pytest

from rxfront.core import (
    BOLTZMANN,
    OPEN_CIRCUIT,
    ComplexImpedance,
    FrequencyGrid,
    ImpedanceMatrixSeries,
    NumericalError,
    ParseError,
    SingularCircuitError,
    TheveninSource,
    ValidationError,
    as_complex,
    johnson_density,
    load_impedance_csv,
    solve_circuit,
    thevenin_from_link,
    validate_passivity,
    validate_reciprocity,
)


def test_boltzmann_is_exact_si_value():
    assert BOLTZMANN == 1.380649e-23


def test_johnson_density_two_sided_convention():
    # 2kTR, not 4kTR: frozen for T=290 K, R=50 ohm
    assert johnson_density(290.0, 50.0) == 4.0038821e-19
    assert johnson_density(0.0, 50.0) == 0.0
    with pytest.raises(ValidationError):
        johnson_density(-1.0, 50.0)
    with pytest.raises(ValidationError):
        johnson_density(290.0, -50.0)


def test_complex_impedance_coercion_and_checks():
    z = ComplexImpedance(50.0, -25.0)
    assert complex(z) == 50.0 - 25.0j
    assert as_complex(z) == 50.0 - 25.0j
    assert as_complex(75) == 75 + 0j
    assert as_complex(1 + 2j) == 1 + 2j
    with pytest.raises(ValidationError):
        ComplexImpedance(math.nan, 0.0)
    with pytest.raises(ValidationError):
        as_complex(complex(math.inf, 0.0))
    with pytest.raises(ValidationError):
        as_complex("fifty")


def test_open_circuit_is_a_singleton_marker():
    assert repr(OPEN_CIRCUIT) == "OPEN_CIRCUIT"
    assert OPEN_CIRCUIT is not None
    assert (OPEN_CIRCUIT == 50.0) is False


def test_thevenin_source_requires_passive_series_impedance():
    src = TheveninSource(1.0, 50 + 10j)
    assert src.v_oc == 1 + 0j
    assert src.z_series == 50 + 10j
    TheveninSource(1.0, 0.0)  # boundary allowed
    with pytest.raises(ValidationError):
        TheveninSource(1.0, -1 + 0j)


def test_frequency_grid_ordering():
    grid = FrequencyGrid([1e6, 2e6, 5e6])
    assert len(grid) == 3
    assert grid[1] == 2e6
    with pytest.raises(ValidationError):
        FrequencyGrid([])
    with pytest.raises(ValidationError):
        FrequencyGrid([1e6, 1e6])
    with pytest.raises(ValidationError):
        FrequencyGrid([2e6, 1e6])
    with pytest.raises(ValidationError):
        FrequencyGrid([0.0, 1e6])


def test_impedance_series_block_slicing():
    mats = np.arange(18, dtype=float).reshape(2, 3, 3) + 0j
    zms = ImpedanceMatrixSeries(FrequencyGrid([1e6, 2e6]), mats, dims=(1, 2))
    assert zms.n_ports == 3
    assert zms.z_t.shape == (2, 1, 1)
    assert zms.z_rt.shape == (2, 2, 1)
    assert zms.z_r.shape == (2, 2, 2)
    assert zms.z_rt[0, 0, 0] == mats[0, 1, 0]
    assert zms.z_r[1, 1, 1] == mats[1, 2, 2]
    with pytest.raises(ValidationError):
        ImpedanceMatrixSeries(FrequencyGrid([1e6, 2e6]), mats, dims=(2, 2))
    with pytest.raises(ValidationError):
        ImpedanceMatrixSeries(FrequencyGrid([1e6]), mats)


def test_matrices_are_frozen_copies():
    mats = np.zeros((1, 2, 2), dtype=complex)
    zms = ImpedanceMatrixSeries(FrequencyGrid([1e6]), mats)
    mats[0, 0, 0] = 99.0
    assert zms.matrices[0, 0, 0] == 0.0
    with pytest.raises((ValueError, RuntimeError)):
        zms.matrices[0, 0, 0] = 1.0


def test_reciprocity_deviation_value():
    mats = np.array([[[75.0, 50.0], [50.1, 75.0]]], dtype=complex)
    zms = ImpedanceMatrixSeries(FrequencyGrid([1e6]), mats)
    report = validate_reciprocity(zms)
    assert not report.passed
    # max|Z - Z^T| / max-entry-magnitude = 0.1 / 75
    assert math.isclose(report.worst_deviation, 0.0013333333333333335, rel_tol=1e-12)
    assert report.worst_index == 0
    assert validate_reciprocity(zms, tol=0.01).passed


def test_reciprocity_passes_for_symmetric():
    mats = np.array([[[75.0, 50.0 + 2j], [50.0 + 2j, 75.0]]])
    report = validate_reciprocity(ImpedanceMatrixSeries(FrequencyGrid([1e6]), mats))
    assert report.passed
    assert report.worst_deviation == 0.0


def test_passivity_eigenvalue_check():
    good = np.array([[[50.0, 10.0], [10.0, 50.0]]], dtype=complex)
    assert validate_passivity(ImpedanceMatrixSeries(FrequencyGrid([1e6]), good)).passed
    bad = np.array([[[50.0, 60.0], [60.0, 50.0]]], dtype=complex)
    report = validate_passivity(ImpedanceMatrixSeries(FrequencyGrid([1e6]), bad))
    assert not report.passed
    # eigs of Re part are -10 and 110: deviation 10/110
    assert math.isclose(report.worst_deviation, 0.09090909090909091, rel_tol=1e-12)


def test_passivity_ignores_reactive_part():
    mats = np.array([[[0.0 + 500j, 0.0], [0.0, 0.0 - 500j]]])
    assert validate_passivity(ImpedanceMatrixSeries(FrequencyGrid([1e6]), mats)).passed


def test_thevenin_from_link_example():
    src = thevenin_from_link(10 + 2j, 0.5, 73 + 42.5j)
    assert src.v_oc == (10 + 2j) * 0.5
    assert src.z_series == 73 + 42.5j


def _write(path, text):
    path.write_text(text)
    return path


def test_csv_loader_mirrors_missing_symmetric_entry(tmp_path):
    path = _write(tmp_path / "z.csv", "\n".join([
        "freq_hz,row,col,re_ohms,im_ohms",
        "2e6,0,0,73,85",
        "2e6,0,1,20,10",
        "2e6,1,1,73,85",
        "1e6,0,0,73,42.5",
        "1e6,1,0,20,5",
        "1e6,0,1,20,5",
        "1e6,1,1,73,42.5",
    ]))
    zms = load_impedance_csv(path)
    assert tuple(zms.grid) == (1e6, 2e6)  # sorted ascending
    assert zms.matrices[1, 1, 0] == 20 + 10j  # mirrored from (0, 1)
    assert zms.matrices[0, 0, 1] == 20 + 5j


def test_csv_loader_missing_cell_is_zero(tmp_path):
    path = _write(tmp_path / "z.csv", "\n".join([
        "freq_hz,row,col,re_ohms,im_ohms",
        "1e6,0,0,50,0",
        "1e6,2,2,50,0",
    ]))
    zms = load_impedance_csv(path)
    assert zms.n_ports == 3
    assert zms.matrices[0, 1, 1] == 0j


def test_csv_loader_rejects_bad_header(tmp_path):
    path = _write(tmp_path / "z.csv", "freq,row,col,re,im\n1e6,0,0,50,0\n")
    with pytest.raises(ParseError):
        load_impedance_csv(path)


def test_csv_loader_rejects_mirror_conflict(tmp_path):
    path = _write(tmp_path / "z.csv", "\n".join([
        "freq_hz,row,col,re_ohms,im_ohms",
        "1e6,0,1,20,5",
        "1e6,1,0,21,5",
        "1e6,0,0,73,0",
        "1e6,1,1,73,0",
    ]))
    with pytest.raises(ParseError):
        load_impedance_csv(path)


def test_csv_loader_rejects_duplicate_conflict(tmp_path):
    path = _write(tmp_path / "z.csv", "\n".join([
        "freq_hz,row,col,re_ohms,im_ohms",
        "1e6,0,0,73,0",
        "1e6,0,0,74,0",
    ]))
    with pytest.raises(ParseError):
        load_impedance_csv(path)


def test_csv_loader_rejects_malformed_row(tmp_path):
    path = _write(tmp_path / "z.csv", "freq_hz,row,col,re_ohms,im_ohms\n1e6,0,zero,50,0\n")
    with pytest.raises(ParseError):
        load_impedance_csv(path)


def test_csv_loader_dims_threaded_through(tmp_path):
    path = _write(tmp_path / "z.csv", "\n".join([
        "freq_hz,row,col,re_ohms,im_ohms",
        "1e6,0,0,50,0",
        "1e6,1,1,60,0",
        "1e6,0,1,5,0",
    ]))
    zms = load_impedance_csv(path, dims=(1, 1))
    assert zms.dims == (1, 1)
    assert zms.z_r[0, 0, 0] == 60 + 0j


def test_validation_report_worst_tracking():
    mats = np.array([
        [[75.0, 50.0], [50.0, 75.0]],
        [[75.0, 50.0], [50.2, 75.0]],
    ], dtype=complex)
    report = validate_reciprocity(ImpedanceMatrixSeries(FrequencyGrid([1e6, 2e6]), mats))
    assert report.worst_index == 1
    assert report.deviations[0] == 0.0


def test_passivity_singular_eigensolve_is_flagged():
    mats = np.array([[[math.nan, 0.0], [0.0, 1.0]]], dtype=complex)
    with pytest.raises((NumericalError, ValidationError)):
        zms = ImpedanceMatrixSeries(FrequencyGrid([1e6]), mats)
        validate_passivity(zms)


def test_solve_circuit_gives_python_complex_numbers():
    x = solve_circuit([[2.0, 1j], [0.0, 4]], np.array([1.0, 8.0]), "test matrix")
    assert x == [0.5 - 1j, 2 + 0j] and all(type(v) is complex for v in x)
    with pytest.raises(SingularCircuitError, match=r"^test matrix is singular$"):
        solve_circuit([[1.0, 2.0], [2.0, 4.0]], [1.0, 0.0], "test matrix")
