import csv
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from rxfront import _pcg64, cli
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
    make_synthetic_model,
    open_circuit_voltages,
    terminate_array,
    termination_matrix,
)
from rxfront.impedance import load_impedance_csv
from oracles import (
    cond_check_ref,
    coupling_draw_ref,
    coupling_offdiag_ratio_ref,
    full_conjugate_closed_form_ref,
    sum_extracted_power_ref,
    sum_power_batch_ref,
    terminated_voltages_ref,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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
    result = terminate_array(model, TerminationStrategy("open_circuit"))
    assert np.array_equal(result.voltages, open_circuit_voltages(model))
    assert result.power.tolist() == [0.0, 0.0]


def test_termination_matrix_kinds():
    z_r = np.array([[50 + 5j, 4 - 1j], [4 - 1j, 60 + 2j]])
    per = termination_matrix(TerminationStrategy("per_antenna_conjugate"), z_r)
    assert np.array_equal(per, np.diag([50 - 5j, 60 - 2j]))
    full = termination_matrix(TerminationStrategy("full_conjugate"), z_r)
    assert np.array_equal(full, np.conj(z_r))
    explicit = termination_matrix(
        TerminationStrategy("explicit", np.diag([75 + 0j, 75 + 0j])), z_r
    )
    assert np.array_equal(explicit, np.diag([75 + 0j, 75 + 0j]))


def test_explicit_strategy_shape_and_passivity_checks():
    model = _model(n_rx=2)
    wrong_shape = TerminationStrategy("explicit", np.diag([75 + 0j, 75 + 0j, 75 + 0j]))
    with pytest.raises(ValidationError):
        terminate_array(model, wrong_shape)
    active = TerminationStrategy("explicit", np.diag([-75 + 0j, 75 + 0j]))
    z_r = np.asarray(model.zms.z_r[0])
    with pytest.raises(ValidationError):
        termination_matrix(active, z_r)
    with pytest.raises(ValidationError):
        TerminationStrategy("explicit", np.array([[math.nan + 0j, 0], [0, 75 + 0j]]))
    with pytest.raises(ValidationError):
        TerminationStrategy("per_antenna_conjugate", np.eye(2, dtype=complex))
    with pytest.raises(ValidationError):
        TerminationStrategy("bogus_kind")


def test_full_conjugate_closed_form_matches_general_solve():
    for seed in (1, 2, 3):
        model = _model(n_rx=4, seed=seed)
        v_slow = terminate_array(model, TerminationStrategy("full_conjugate")).voltages
        for fi in range(2):
            z_r = np.asarray(model.zms.z_r[fi])
            v_fast = full_conjugate_closed_form_ref(z_r, open_circuit_voltages(model)[fi])
            assert np.max(np.abs(v_fast - v_slow[fi])) <= 1e-10 * np.max(np.abs(v_slow[fi]))


def test_full_conjugate_extracts_available_power():
    # sum power under full conjugate equals (1/8) v_oc^H Re(Z_R)^-1 v_oc
    model = _model(n_rx=3, seed=4)
    p = terminate_array(model, TerminationStrategy("full_conjugate")).power
    for fi in range(2):
        z_r = np.asarray(model.zms.z_r[fi])
        v_oc = open_circuit_voltages(model)[fi]
        want = 0.125 * np.real(np.conj(v_oc) @ np.linalg.solve(z_r.real, v_oc))
        assert math.isclose(p[fi], want, rel_tol=1e-10)


def test_full_conjugate_beats_per_antenna():
    for seed in range(5):
        model = _model(n_rx=4, seed=seed, coupling=8.0)
        p_fc = terminate_array(model, TerminationStrategy("full_conjugate")).power
        p_pa = terminate_array(model, TerminationStrategy("per_antenna_conjugate")).power
        assert np.all(p_fc >= p_pa * (1 - 1e-12))


def test_single_antenna_reduces_to_thevenin_formulas():
    model = make_synthetic_model(1, 1, 73 + 42.5j, 0.0, 0.5, [1e6])
    v_oc = open_circuit_voltages(model)[0, 0]
    p = terminate_array(model, TerminationStrategy("full_conjugate")).power[0]
    assert math.isclose(p, abs(v_oc) ** 2 / (8 * 73.0), rel_tol=1e-12)
    v = terminate_array(model, TerminationStrategy("per_antenna_conjugate")).voltages[0, 0]
    want = v_oc * (73 - 42.5j) / (146.0)
    assert abs(v - want) <= 1e-12 * abs(want)


def test_perturbations_never_beat_full_conjugate():
    model = _model(n_rx=3, seed=6)
    z_r = np.asarray(model.zms.z_r[0])
    v_oc = open_circuit_voltages(model)[0]
    z_fc = termination_matrix(TerminationStrategy("full_conjugate"), z_r)
    rng = np.random.default_rng(7)
    eig_min = np.min(np.linalg.eigvalsh((z_r.real + z_r.real.T) / 2.0))
    raw = rng.standard_normal((200, 3, 3)) + 1j * rng.standard_normal((200, 3, 3))
    sym = (raw + np.transpose(raw, (0, 2, 1))) / 2.0
    scale = 0.4 * eig_min / np.abs(sym).sum(axis=(1, 2))[:, None, None]
    powers = sum_power_batch_ref(z_r, z_fc + sym * scale, v_oc)
    p_best = terminate_array(model, TerminationStrategy("full_conjugate")).power[0]
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
        volts = terminate_array(model, TerminationStrategy("per_antenna_conjugate")).voltages
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
    assert terminate_array(model, TerminationStrategy("open_circuit")).offdiag_ratio.tolist() == [0.0, 0.0]
    uncoupled = make_synthetic_model(1, 3, 50 + 5j, 0.0, 0.5, [1e6])
    r = terminate_array(uncoupled, TerminationStrategy("per_antenna_conjugate")).offdiag_ratio
    assert np.all(r == 0.0)
    coupled = terminate_array(model, TerminationStrategy("per_antenna_conjugate")).offdiag_ratio
    assert np.all(coupled > 0.0)


def test_zero_diagonal_divider_gives_an_inf_ratio_and_no_warning():
    # a zero load shorts every port: the divider is 0, and its ratio is the
    # documented inf flag, not an overflow
    model = _model(n_rx=3, seed=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = terminate_array(model, TerminationStrategy("explicit", np.zeros((3, 3))))
    assert result.offdiag_ratio.tolist() == [math.inf, math.inf]
    assert not result.voltages.any() and not result.power.any()


@pytest.mark.parametrize("kind", ["open_circuit", "per_antenna_conjugate", "full_conjugate"])
def test_an_overflowing_termination_is_refused_at_its_first_frequency(kind):
    # |z_rt| is about 20.6 ohms, so a 1e308 A current at frequency index 1
    # gives a V_oc outside the float range there and nowhere else
    zms = load_impedance_csv(SCENARIOS / "coupled_pair.csv", (1, 1))
    model = ArrayModel(zms, np.array([[1.0], [1e308], [1e308]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=f"^{kind}: .* at frequency index 1 is outside the float range$"):
            terminate_array(model, TerminationStrategy(kind))


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


class _CountingRng:
    """A Generator that counts its uniform() calls."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def uniform(self, *args, **kwargs):
        self.calls += 1
        return self.rng.uniform(*args, **kwargs)


def _model_from_draw_ref(selfs, coupling, decay, freqs, rng, max_tries=100):
    """The synthetic model's matrices from the per-pair loop's draw, scaled
    to the grid as make_synthetic_model scales its draw."""
    base = coupling_draw_ref(selfs, coupling, decay, rng, max_tries)
    return np.stack([base.real + 1j * base.imag * (freq / freqs[0]) for freq in freqs])


def test_synthetic_draw_matches_the_per_pair_loop():
    # coupling 0 and a decay whose powers underflow give zero-magnitude
    # entries, whose signed zeros come from Python's float * complex
    params = [(1.0, 0.5), (8.0, 0.3), (0.0, 0.5), (2.0, 1e-200), (3.0, 1.0)]
    freqs = [1e6, 2.5e6]
    for seed in range(21):
        for n in range(2, 41):
            coupling, decay = params[(seed + n) % len(params)]
            selfs = np.linspace(40.0, 90.0, n) + 1j * np.linspace(-20.0, 20.0, n)
            rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = make_synthetic_model(1, n - 1, selfs, coupling, decay, freqs, rng=rng).zms.matrices
            want = _model_from_draw_ref(selfs, coupling, decay, freqs, rng_ref)
            assert np.array_equal(np.asarray(got).view(np.uint64), want.view(np.uint64)), (seed, n)
            assert rng.bit_generator.state == rng_ref.bit_generator.state
            seeded = make_synthetic_model(1, n - 1, selfs, coupling, decay, freqs, rng=seed).zms.matrices
            assert np.array_equal(np.asarray(seeded).view(np.uint64), want.view(np.uint64)), (seed, n)


def test_synthetic_draw_rejects_active_draws_as_the_loop_did():
    selfs, freqs = np.full(8, 50.0 + 5.0j), [1e6]
    counting = _CountingRng(3)
    got = make_synthetic_model(1, 7, selfs, 30.0, 0.9, freqs, rng=counting).zms.matrices
    want = _model_from_draw_ref(selfs, 30.0, 0.9, freqs, np.random.default_rng(3))
    assert counting.calls > 1  # some draws were not passive
    assert np.array_equal(np.asarray(got).view(np.uint64), want.view(np.uint64))
    seeded = make_synthetic_model(1, 7, selfs, 30.0, 0.9, freqs, rng=3).zms.matrices
    assert np.array_equal(np.asarray(seeded).view(np.uint64), want.view(np.uint64))
    for rng in (np.random.default_rng(3), 3):
        with pytest.raises(NumericalError, match="no passive coupling draw in 3 tries"):
            make_synthetic_model(1, 7, selfs, 200.0, 1.0, freqs, rng=rng, max_tries=3)
    with pytest.raises(NumericalError, match="no passive coupling draw in 3 tries"):
        coupling_draw_ref(selfs, 200.0, 1.0, np.random.default_rng(3), 3)


def _seeds():
    yield from (0, 1, 2**32 - 1, 2**32, 2**63 - 1)
    rng = np.random.default_rng(2014)
    for bits in rng.integers(1, 160, size=300).tolist():  # past 128 bits: more entropy than the pool
        yield int.from_bytes(rng.bytes(20), "little") >> (160 - bits)


def test_seeded_uniform_matches_numpy_bit_for_bit():
    seeds = list(_seeds())
    assert len(seeds) == 305 and max(seeds) >= 2**128
    for seed in seeds:
        replica, numpy_rng = _pcg64.SeededUniform(seed), np.random.default_rng(seed)
        for size in (0, 1, 136, 1, 0, 136):  # chained calls on one generator
            got = replica.uniform(0.0, 2.0 * math.pi, size)
            want = numpy_rng.uniform(0.0, 2.0 * math.pi, size=size)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), (seed, size)
    assert _pcg64.SeededUniform(np.uint64(2**64 - 1)).uniform(-3.0, 5.0, 9).tobytes() == \
        np.random.default_rng(2**64 - 1).uniform(-3.0, 5.0, size=9).tobytes()


def test_synthetic_model_defaults_to_seed_0():
    default = make_synthetic_model(1, 3, 50 + 5j, 5.0, 0.5, [1e6, 2e6]).zms.matrices
    assert default.tobytes() == _model(n_rx=3, seed=0).zms.matrices.tobytes()


def test_negative_seed_is_rejected_as_numpy_rejects_it():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        make_synthetic_model(1, 3, 50 + 5j, 1.0, 0.5, [1e6], rng=-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng(-1)


def _stacked_cases():
    explicit = np.full((4, 4), 2.0 - 3.0j) + np.diag([73 + 10j, 75 - 5j, 80 + 0j, 70 + 20j])
    for seed in (0, 1, 2):
        model = make_synthetic_model(
            1, 4, 50 + 5j, 6.0, 0.6, np.linspace(1e6, 3e6, 7), rng=np.random.default_rng(seed)
        )
        for kind in ("per_antenna_conjugate", "full_conjugate"):
            yield model, TerminationStrategy(kind), kind, None
        yield model, TerminationStrategy("explicit", explicit), "explicit", explicit


def test_stacked_solve_matches_per_frequency_oracle():
    for model, strategy, kind, z_l in _stacked_cases():
        z_r = np.asarray(model.zms.z_r)
        v_oc = open_circuit_voltages(model)
        result = terminate_array(model, strategy)
        # same LAPACK/BLAS calls per matrix as the loops, so equal bit for bit
        assert np.array_equal(result.voltages, terminated_voltages_ref(z_r, v_oc, kind, z_l))
        assert np.array_equal(result.power, sum_extracted_power_ref(z_r, v_oc, kind, z_l))
        assert np.array_equal(result.offdiag_ratio, coupling_offdiag_ratio_ref(z_r, kind, z_l))


@pytest.mark.parametrize("kind", ["per_antenna_conjugate", "full_conjugate"])
def test_one_strategy_peaks_below_three_and_a_half_stacks(kind):
    # load, inverse, currents and divider: Z_R + Z_L is freed before the products
    freqs, n_rx = np.linspace(1e6, 3e6, 400), 16
    model = make_synthetic_model(1, n_rx, 50 + 5j, 4.0, 0.5, freqs, rng=1)
    tracemalloc.start()
    try:
        terminate_array(model, TerminationStrategy(kind))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = len(freqs) * n_rx**2 * 16
    print(f"{kind}: peak {peak / stack:.3f} stacks (bound 3.5), numpy {np.__version__}")
    assert peak <= 3.5 * stack


def test_synthetic_model_peaks_below_three_stacks():
    # the stack built in place, the model's copy and the validators' temporaries
    freqs, n = np.linspace(1e6, 3e6, 400), 17
    tracemalloc.start()
    try:
        make_synthetic_model(1, n - 1, 50 + 5j, 4.0, 0.5, freqs, rng=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = len(freqs) * n**2 * 16
    print(f"synthetic model: peak {peak / stack:.3f} stacks (bound 2.75), numpy {np.__version__}")
    assert peak <= 2.75 * stack


def test_termination_matrix_accepts_a_stack():
    model = _model(n_rx=3)
    z_r = np.asarray(model.zms.z_r)
    for strategy in (
        TerminationStrategy("per_antenna_conjugate"),
        TerminationStrategy("full_conjugate"),
        TerminationStrategy("explicit", np.eye(3) * 75.0),
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
    strategy = TerminationStrategy("explicit", np.array([[-30j]]))
    with pytest.raises(SingularCircuitError, match="frequency index 1$"):
        terminate_array(model, strategy)


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
    short = TerminationStrategy("explicit", np.zeros((2, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SingularCircuitError, match="frequency index 1$"):
            terminate_array(model, short)


def _graded(rng, k, cond):
    # Complex symmetric Q diag(d) Q^T with Q real orthogonal and Re(d) > 0:
    # passive, reciprocal, and its singular values are |d|, spread over cond.
    q = np.linalg.qr(rng.standard_normal((k, k)))[0]
    mags = np.logspace(0.0, -math.log10(cond), k) if k > 1 else np.ones(1)
    d = mags * np.exp(1j * rng.uniform(-1.4, 1.4, k))
    return (q * d) @ q.T


def _cond_case(rng, k, conds, singular=(), pivot=()):
    """A shorted (1, k) model whose Z_R + Z_L is a graded stack; at the
    indices in singular a port is an exact short (a zero row and column), at
    those in pivot the receive block has rank one. Both may give the solve an
    exact zero pivot while the SVD's condition number stays finite."""
    mats = np.zeros((len(conds), 1 + k, 1 + k), dtype=complex)
    mats[:, 0, 0] = 50.0
    mats[:, 0, 1:] = mats[:, 1:, 0] = 5j * rng.uniform(0.5, 1.0, k)
    for fi, cond in enumerate(conds):
        mats[fi, 1:, 1:] = _graded(rng, k, cond)
    for fi in singular:
        port = 1 + int(rng.integers(k))
        mats[fi, port, :] = mats[fi, :, port] = 0.0
    for fi in pivot:
        col = rng.uniform(1.0, 5.0, k)
        mats[fi, 1:, 1:] = np.outer(col, col)
    zms = ImpedanceMatrixSeries(FrequencyGrid(1e6 * np.arange(1, len(conds) + 1)), mats, dims=(1, k))
    return ArrayModel(zms, np.array([1 + 0j])), TerminationStrategy("explicit", np.zeros((k, k)))


def _cond_cases():
    rng = np.random.default_rng(2024)
    for k in (1, 2, 3, 8, 16):
        for _ in range(6):
            conds = 10.0 ** rng.uniform(8.0, 18.0, 10)
            conds[rng.integers(10, size=3)] = 1e12 * (1.0 + rng.uniform(-0.01, 0.01, 3))
            yield _cond_case(rng, k, conds)
        yield _cond_case(rng, k, [1e3, 1e9, 1e3], singular=[1])
        yield _cond_case(rng, k, [1e13, 1e3, 1e15], singular=[1, 2])  # after an index that only warns
        yield _cond_case(rng, k, [1e3, 1e3], singular=[0, 1])
        if k > 1:
            yield _cond_case(rng, k, [1e3, 1e13, 1e4], pivot=[2])


def _outcome(model, strategy):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            terminate_array(model, strategy)
            error = None
        except SingularCircuitError as exc:
            error = str(exc)
    assert all(w.category is RuntimeWarning for w in caught)
    return [str(w.message) for w in caught], error


def test_conditioning_matches_an_svd_at_every_frequency():
    outcomes = set()
    for model, strategy in _cond_cases():
        z_r = np.asarray(model.zms.z_r)
        expected = cond_check_ref(z_r + strategy.z_l, open_circuit_voltages(model))
        assert _outcome(model, strategy) == expected
        outcomes.add((bool(expected[0]), expected[1] is not None))
    assert outcomes == {(False, False), (True, False), (False, True), (True, True)}


def _counting_cond(monkeypatch):
    seen = []
    cond = np.linalg.cond

    def counted(x, *args, **kwargs):
        seen.append(np.array(x))
        return cond(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counted)
    return seen


@pytest.mark.parametrize("name", ["array_pair", "array_synthetic"])
def test_shipped_array_scenarios_take_no_svd(monkeypatch, capsys, name):
    seen = _counting_cond(monkeypatch)
    assert cli.main(["array", "--scenario", str(SCENARIOS / f"{name}.json")]) == 0
    assert seen == []


def test_svd_sees_only_the_suspect_frequencies(monkeypatch):
    # the stack of test_ill_conditioned_termination_warns: 0 and 2 are suspects
    ill = [[50.0 + 0j, 1e-8, 1e-8], [1e-8, 1e-13 + 0j, 0.0], [1e-8, 0.0, 1.0 + 0j]]
    fine = [[50.0 + 0j, 1.0, 1.0], [1.0, 40.0 + 0j, 0.0], [1.0, 0.0, 30.0 + 0j]]
    mats = np.array([ill, fine, ill])
    model = ArrayModel(ImpedanceMatrixSeries(FrequencyGrid([1e6, 2e6, 3e6]), mats, dims=(1, 2)), np.array([1 + 0j]))
    strategy = TerminationStrategy("per_antenna_conjugate")
    seen = _counting_cond(monkeypatch)
    with pytest.warns(RuntimeWarning):
        terminate_array(model, strategy)
    total = mats[:, 1:, 1:] + termination_matrix(strategy, mats[:, 1:, 1:])
    assert len(seen) == 1 and np.array_equal(seen[0], total[[0, 2]])


def test_array_report_matches_the_row_by_row_rendering(tmp_path):
    # The report is built column by column; each row must carry the bytes the
    # per-row rendering gives: fmt(abs(v)) and fmt(math.atan2(v.imag, v.real))
    # per port, joined with ';'.
    freqs = [float(f) for f in np.linspace(1e6, 9e6, 40)]
    n_rx = 5
    z_l = [[{"re": 50.0 if i == j else 2.0, "im": 10.0 if i == j else -1.0} for j in range(n_rx)]
           for i in range(n_rx)]
    names = ["open_circuit", "per_antenna_conjugate", "full_conjugate"]
    synthetic = {"n_tx": 2, "n_rx": n_rx, "self_ohms": {"re": 50, "im": 5}, "coupling_ohms": 8,
                 "decay": 0.3, "frequencies_hz": freqs, "seed": 7}
    scenario = tmp_path / "array.json"
    scenario.write_text(json.dumps({"array": {
        "synthetic": synthetic, "strategies": [*names, {"kind": "explicit", "z_l_ohms": z_l}],
    }}))
    out = tmp_path / "array.csv"
    assert cli.main(["array", "--scenario", str(scenario), "--out", str(out)]) == 0

    model = make_synthetic_model(2, n_rx, 50 + 5j, 8.0, 0.3, freqs, rng=np.random.default_rng(7))
    explicit = np.array([[complex(c["re"], c["im"]) for c in row] for row in z_l])
    strategies = [*((name, TerminationStrategy(name)) for name in names),
                  ("explicit", TerminationStrategy("explicit", explicit))]
    solved = [(label, terminate_array(model, strategy)) for label, strategy in strategies]
    expected = [["freq_hz", "strategy", "sum_power_w", "v_mag_volts", "v_phase_rad", "annotations"]]
    for fi, freq in enumerate(freqs):
        for label, result in solved:
            volts = result.voltages[fi]
            note = ";time_reversal_caveat" if label == "full_conjugate" else ""
            expected.append([
                cli.fmt(freq), label, cli.fmt(result.power[fi]),
                ";".join(cli.fmt(abs(v)) for v in volts),
                ";".join(cli.fmt(math.atan2(v.imag, v.real)) for v in volts),
                "offdiag_ratio=" + cli.fmt(result.offdiag_ratio[fi]) + note,
            ])
    with open(out, newline="") as handle:
        assert list(csv.reader(handle)) == expected
