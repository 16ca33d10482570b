import math
import warnings

import numpy as np
import pytest

from rxfront.core import (
    FrequencyGrid,
    ImpedanceMatrixSeries,
    NumericalError,
    SingularCircuitError,
    ValidationError,
)
from rxfront.arrays import (
    ArrayModel,
    TerminationStrategy,
    coupling_offdiag_ratio,
    full_conjugate_closed_form,
    make_synthetic_model,
    open_circuit_voltages,
    perturbation_sum_powers,
    sum_extracted_power,
    terminate_array,
    terminated_voltages,
    termination_matrix,
)
from oracles import (
    coupling_offdiag_ratio_ref,
    sum_extracted_power_ref,
    terminated_voltages_ref,
)


def _model(n_rx=3, seed=0, coupling=5.0):
    return make_synthetic_model(
        1, n_rx, 50 + 5j, coupling, 0.5, [1e6, 2e6], rng=np.random.default_rng(seed)
    )


def test_synthetic_model_shapes_and_validity():
    model = _model()
    assert model.zms.matrices.shape == (2, 4, 4)
    assert model.zms.dims == (1, 3)
    assert model.i_t.shape == (2, 1)
    assert open_circuit_voltages(model).shape == (2, 3)


def test_nonreciprocal_matrix_rejected():
    mats = np.array([[[50.0, 5.0, 1.0], [5.0, 50.0, 5.0], [1.1, 5.0, 50.0]]], dtype=complex)
    zms = ImpedanceMatrixSeries(FrequencyGrid([1e6]), mats, dims=(1, 2))
    with pytest.raises(ValidationError):
        ArrayModel(zms, np.ones(1, dtype=complex))


def test_nonpassive_matrix_rejected():
    mats = np.array([[[1.0, 60.0], [60.0, 1.0]]], dtype=complex)
    zms = ImpedanceMatrixSeries(FrequencyGrid([1e6]), mats, dims=(1, 1))
    with pytest.raises(ValidationError):
        ArrayModel(zms, np.ones(1, dtype=complex))


def test_open_circuit_voltages_are_transfer_times_current():
    model = _model()
    v_oc = open_circuit_voltages(model)
    want = np.einsum("fkm,fm->fk", model.zms.z_rt, model.i_t)
    assert np.array_equal(v_oc, want)


def test_open_circuit_termination_is_bit_exact_and_powerless():
    model = _model()
    strat = TerminationStrategy.open_circuit()
    v = terminated_voltages(model, strat)
    assert np.array_equal(v, open_circuit_voltages(model))
    p = sum_extracted_power(model, strat)
    assert p.tolist() == [0.0, 0.0]


def test_termination_matrix_kinds():
    z_r = np.array([[50 + 5j, 4 - 1j], [4 - 1j, 60 + 2j]])
    per = termination_matrix(TerminationStrategy.per_antenna_conjugate(), z_r)
    assert np.array_equal(per, np.diag([50 - 5j, 60 - 2j]))
    full = termination_matrix(TerminationStrategy.full_conjugate(), z_r)
    assert np.array_equal(full, np.conj(z_r))
    explicit = termination_matrix(
        TerminationStrategy.explicit(np.diag([75 + 0j, 75 + 0j])), z_r
    )
    assert np.array_equal(explicit, np.diag([75 + 0j, 75 + 0j]))


def test_explicit_strategy_shape_and_passivity_checks():
    model = _model(n_rx=2)
    wrong_shape = TerminationStrategy.explicit(np.diag([75 + 0j, 75 + 0j, 75 + 0j]))
    with pytest.raises(ValidationError):
        terminated_voltages(model, wrong_shape)
    active = TerminationStrategy.explicit(np.diag([-75 + 0j, 75 + 0j]))
    z_r = np.asarray(model.zms.z_r[0])
    with pytest.raises(ValidationError):
        termination_matrix(active, z_r)
    with pytest.raises(ValidationError):
        TerminationStrategy.explicit(np.array([[math.nan + 0j, 0], [0, 75 + 0j]]))
    with pytest.raises(ValidationError):
        TerminationStrategy("per_antenna_conjugate", np.eye(2, dtype=complex))
    with pytest.raises(ValidationError):
        TerminationStrategy("bogus_kind")


def test_full_conjugate_closed_form_matches_general_solve():
    for seed in (1, 2, 3):
        model = _model(n_rx=4, seed=seed)
        v_slow = terminated_voltages(model, TerminationStrategy.full_conjugate())
        for fi in range(2):
            z_r = np.asarray(model.zms.z_r[fi])
            v_fast = full_conjugate_closed_form(z_r, open_circuit_voltages(model)[fi])
            assert np.max(np.abs(v_fast - v_slow[fi])) <= 1e-10 * np.max(np.abs(v_slow[fi]))


def test_full_conjugate_extracts_available_power():
    # sum power under full conjugate equals (1/8) v_oc^H Re(Z_R)^-1 v_oc
    model = _model(n_rx=3, seed=4)
    p = sum_extracted_power(model, TerminationStrategy.full_conjugate())
    for fi in range(2):
        z_r = np.asarray(model.zms.z_r[fi])
        v_oc = open_circuit_voltages(model)[fi]
        want = 0.125 * np.real(np.conj(v_oc) @ np.linalg.solve(z_r.real, v_oc))
        assert math.isclose(p[fi], want, rel_tol=1e-10)


def test_full_conjugate_beats_per_antenna():
    for seed in range(5):
        model = _model(n_rx=4, seed=seed, coupling=8.0)
        p_fc = sum_extracted_power(model, TerminationStrategy.full_conjugate())
        p_pa = sum_extracted_power(model, TerminationStrategy.per_antenna_conjugate())
        assert np.all(p_fc >= p_pa * (1 - 1e-12))


def test_single_antenna_reduces_to_thevenin_formulas():
    model = make_synthetic_model(1, 1, 73 + 42.5j, 0.0, 0.5, [1e6])
    v_oc = open_circuit_voltages(model)[0, 0]
    p = sum_extracted_power(model, TerminationStrategy.full_conjugate())[0]
    assert math.isclose(p, abs(v_oc) ** 2 / (8 * 73.0), rel_tol=1e-12)
    v = terminated_voltages(model, TerminationStrategy.per_antenna_conjugate())[0, 0]
    want = v_oc * (73 - 42.5j) / (146.0)
    assert abs(v - want) <= 1e-12 * abs(want)


def test_perturbations_never_beat_full_conjugate():
    model = _model(n_rx=3, seed=6)
    z_r = np.asarray(model.zms.z_r[0])
    v_oc = open_circuit_voltages(model)[0]
    z_fc = termination_matrix(TerminationStrategy.full_conjugate(), z_r)
    rng = np.random.default_rng(7)
    eig_min = np.min(np.linalg.eigvalsh((z_r.real + z_r.real.T) / 2.0))
    raw = rng.standard_normal((200, 3, 3)) + 1j * rng.standard_normal((200, 3, 3))
    sym = (raw + np.transpose(raw, (0, 2, 1))) / 2.0
    scale = 0.4 * eig_min / np.abs(sym).sum(axis=(1, 2))[:, None, None]
    powers = perturbation_sum_powers(z_r, z_fc, v_oc, sym * scale)
    p_best = sum_extracted_power(model, TerminationStrategy.full_conjugate())[0]
    assert np.all(powers <= p_best * (1 + 1e-12))


def test_ill_conditioned_termination_warns():
    # z_r self resistances spread over 13 decades: conjugate termination
    # doubles them, leaving cond(Z_R + Z_L) ~ 1e13 past the warning bar.
    # Frequencies 0 and 2 are ill-conditioned; each warns once, by index.
    ill = [[50.0 + 0j, 1e-8, 1e-8], [1e-8, 1e-13 + 0j, 0.0], [1e-8, 0.0, 1.0 + 0j]]
    fine = [[50.0 + 0j, 1.0, 1.0], [1.0, 40.0 + 0j, 0.0], [1.0, 0.0, 30.0 + 0j]]
    zms = ImpedanceMatrixSeries(
        FrequencyGrid([1e6, 2e6, 3e6]), np.array([ill, fine, ill]), dims=(1, 2)
    )
    model = ArrayModel(zms, np.array([1 + 0j]))
    with pytest.warns(RuntimeWarning) as caught:
        volts = terminated_voltages(model, TerminationStrategy.per_antenna_conjugate())
    messages = [str(w.message) for w in caught]
    assert len(messages) == 2
    assert "frequency index 0:" in messages[0] and "frequency index 2:" in messages[1]
    assert np.all(np.isfinite(volts))


def test_current_vector_broadcasting():
    zms = _model(n_rx=2).zms
    flat = ArrayModel(zms, np.array([1 + 0j]))
    per_freq = ArrayModel(zms, np.array([[1 + 0j], [1 + 0j]]))
    assert np.array_equal(flat.i_t, per_freq.i_t)
    with pytest.raises(ValidationError):
        ArrayModel(zms, np.ones((3, 1), dtype=complex))


def test_offdiag_ratio_properties():
    model = _model(n_rx=3, seed=8)
    assert coupling_offdiag_ratio(model, TerminationStrategy.open_circuit()).tolist() == [0.0, 0.0]
    uncoupled = make_synthetic_model(1, 3, 50 + 5j, 0.0, 0.5, [1e6])
    r = coupling_offdiag_ratio(uncoupled, TerminationStrategy.per_antenna_conjugate())
    assert np.all(r == 0.0)
    coupled = coupling_offdiag_ratio(model, TerminationStrategy.per_antenna_conjugate())
    assert np.all(coupled > 0.0)


def test_synthetic_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        make_synthetic_model(0, 2, 50 + 5j, 1.0, 0.5, [1e6])
    with pytest.raises(ValidationError):
        make_synthetic_model(1, 2, -50 + 5j, 1.0, 0.5, [1e6])
    with pytest.raises(ValidationError):
        make_synthetic_model(1, 2, 50 + 5j, -1.0, 0.5, [1e6])
    with pytest.raises(ValidationError):
        make_synthetic_model(1, 2, 50 + 5j, 1.0, 1.5, [1e6])


@pytest.mark.parametrize("freqs", [[0.0, 1e6], [2e6, 1e6], []])
def test_synthetic_checks_its_grid_before_scaling(freqs):
    # reactances scale by freq / freqs[0]; a zero first point used to divide by zero
    with pytest.raises(ValidationError):
        make_synthetic_model(1, 2, 50 + 5j, 1.0, 0.5, freqs)


def _stacked_cases():
    explicit = np.full((4, 4), 2.0 - 3.0j) + np.diag([73 + 10j, 75 - 5j, 80 + 0j, 70 + 20j])
    for seed in (0, 1, 2):
        model = make_synthetic_model(
            1, 4, 50 + 5j, 6.0, 0.6, np.linspace(1e6, 3e6, 7), rng=np.random.default_rng(seed)
        )
        for kind in ("per_antenna_conjugate", "full_conjugate"):
            yield model, TerminationStrategy(kind), kind, None
        yield model, TerminationStrategy.explicit(explicit), "explicit", explicit


def test_stacked_solve_matches_per_frequency_oracle():
    for model, strategy, kind, z_l in _stacked_cases():
        z_r = np.asarray(model.zms.z_r)
        v_oc = open_circuit_voltages(model)
        result = terminate_array(model, strategy)
        # same LAPACK/BLAS calls per matrix as the loops, so equal bit for bit
        assert np.array_equal(result.voltages, terminated_voltages_ref(z_r, v_oc, kind, z_l))
        assert np.array_equal(result.power, sum_extracted_power_ref(z_r, v_oc, kind, z_l))
        assert np.array_equal(result.offdiag_ratio, coupling_offdiag_ratio_ref(z_r, kind, z_l))
        assert np.array_equal(terminated_voltages(model, strategy), result.voltages)
        assert np.array_equal(sum_extracted_power(model, strategy), result.power)
        assert np.array_equal(coupling_offdiag_ratio(model, strategy), result.offdiag_ratio)


def test_termination_matrix_accepts_a_stack():
    model = _model(n_rx=3)
    z_r = np.asarray(model.zms.z_r)
    for strategy in (
        TerminationStrategy.per_antenna_conjugate(),
        TerminationStrategy.full_conjugate(),
        TerminationStrategy.explicit(np.eye(3) * 75.0),
    ):
        stack = termination_matrix(strategy, z_r)
        assert stack.shape == z_r.shape
        for fi in range(len(z_r)):
            assert np.array_equal(stack[fi], termination_matrix(strategy, z_r[fi]))


def test_singular_termination_names_the_frequency():
    # At 2 MHz the receive port is lossless (z_r = 30j); the explicit load
    # -30j cancels it and Z_R + Z_L = 0. At 1 MHz the sum is 50 + 0j.
    mats = np.array([
        [[50.0 + 0j, 5j], [5j, 50.0 + 30j]],
        [[50.0 + 0j, 5j], [5j, 30j]],
    ])
    zms = ImpedanceMatrixSeries(FrequencyGrid([1e6, 2e6]), mats, dims=(1, 1))
    model = ArrayModel(zms, np.array([1 + 0j]))
    strategy = TerminationStrategy.explicit(np.array([[-30j]]))
    for solve in (terminate_array, terminated_voltages, sum_extracted_power, coupling_offdiag_ratio):
        with pytest.raises(SingularCircuitError, match="frequency index 1$"):
            solve(model, strategy)


def test_singular_termination_with_finite_condition_estimate():
    # A rank-one passive Z_R shorted at 2 MHz: here the SVD gives cond ~ 4e16,
    # not inf, and the stacked solve meets the exact zero pivot instead.
    # Whichever guard trips, the error names index 1.
    mats = np.zeros((2, 3, 3), dtype=complex)
    mats[:, 0, 0] = 50.0
    mats[:, 0, 1:] = mats[:, 1:, 0] = 5j
    mats[0, 1:, 1:] = [[50.0, 5.0], [5.0, 40.0]]
    mats[1, 1:, 1:] = [[50.0, 25.0], [25.0, 12.5]]
    zms = ImpedanceMatrixSeries(FrequencyGrid([1e6, 2e6]), mats, dims=(1, 2))
    model = ArrayModel(zms, np.array([1 + 0j]))
    short = TerminationStrategy.explicit(np.zeros((2, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SingularCircuitError, match="frequency index 1$"):
            terminate_array(model, short)
