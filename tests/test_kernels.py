"""The load optimizer's grid path, scored in row blocks by output_snr's
formula, against the one-load-at-a-time grid oracle; and the stacked
perturbation solve against one solve per load."""

import numpy as np
import pytest

from rxfront import link
from rxfront.arrays import perturbation_sum_powers
from rxfront.core import OPEN_CIRCUIT, NumericalError
from rxfront.link import AmplifierNoiseModel, GridSpec, SingleLink, optimize_load

from oracles import K_BOLTZ, output_snr_scalar, snr_grid_ref, sum_power_batch_ref


def _ref_args(lnk, amp, re_vals, im_vals):
    s_voc = (lnk.z_rt.real**2 + lnk.z_rt.imag**2) * lnk.s_it
    return (re_vals, im_vals, lnk.z_r.real, lnk.z_r.imag, s_voc, amp.gain**2, amp.n_na,
            2.0 * K_BOLTZ * amp.temperature)


def _ref_winner(scores, re_vals, im_vals):
    """The optimizer's rule on a whole grid: the top score, then the larger
    |z_l|^2, then the first cell in C order; None for a NaN or -inf top."""
    top = scores.max()
    if not top > -np.inf:
        return None
    ii, jj = np.nonzero(scores == top)
    k = int(np.argmax(re_vals[ii] ** 2 + im_vals[jj] ** 2))
    return int(ii[k]), int(jj[k])


def _grid_case(seed):
    rng = np.random.default_rng(seed)
    lnk = SingleLink(complex(rng.uniform(0.5, 200), rng.uniform(-200, 200)),
                     complex(rng.normal(), rng.normal()), 10.0 ** rng.uniform(-13, -10))
    amp = AmplifierNoiseModel(rng.uniform(1, 30), 10.0 ** rng.uniform(-12, -8), rng.uniform(30, 600))
    re_vals = np.linspace(0.0, rng.uniform(50, 400), 150)  # three row blocks
    im_vals = np.linspace(-200.0, 200.0, 41)
    return lnk, amp, re_vals, im_vals


def test_grid_paths_agree():
    for seed in range(5):
        lnk, amp, re_vals, im_vals = _grid_case(seed)
        a = snr_grid_ref(*_ref_args(lnk, amp, re_vals, im_vals))
        b = link._grid_scores(lnk, amp, re_vals, im_vals)
        assert a.shape == b.shape
        finite = np.isfinite(a)
        assert np.array_equal(finite, np.isfinite(b))
        assert np.allclose(a[finite], b[finite], rtol=1e-13, atol=0.0)
        assert np.array_equal(a[~finite], b[~finite])  # same inf signs
        # the blocked winner is the whole-grid winner, scored as output_snr scores it
        snr, i, j = link._grid_winner(lnk, amp, re_vals, im_vals)
        assert (i, j) == _ref_winner(a, re_vals, im_vals)
        assert snr == output_snr_scalar(lnk, amp, complex(re_vals[i], im_vals[j]))
        best, best_snr = optimize_load(lnk, amp, GridSpec(re_vals[-1], 200.0, 150, 41, include_open=False))
        assert (complex(best), best_snr) == (complex(re_vals[i], im_vals[j]), snr)


def test_grid_handles_singular_and_noiseless_points():
    lnk = SingleLink(25j, 1.0, 1e-12)
    amp = AmplifierNoiseModel(10.0, 0.0, 290.0)
    re_vals = np.array([0.0, 50.0])
    im_vals = np.array([-25.0, 0.0])
    a = link._grid_scores(lnk, amp, re_vals, im_vals)
    b = snr_grid_ref(*_ref_args(lnk, amp, re_vals, im_vals))
    assert a[0, 0] == -np.inf and b[0, 0] == -np.inf  # z_r + z_l = 0
    assert a[0, 1] == np.inf and b[0, 1] == np.inf  # re=0 kills the Johnson term


def test_grid_tie_spans_block_boundaries():
    rows = 2 * link.GRID_BLOCK_ROWS + 2
    # z_r = 0: every nonsingular load gives the same SNR, so the tie goes to
    # the largest |z_l|^2, which sits in the last block.
    lnk = SingleLink(0.0, 1.0, 1e-12)
    amp = AmplifierNoiseModel(10.0, 1e-9, 290.0)
    re_vals = np.linspace(0.0, 30.0, rows)
    im_vals = np.linspace(-40.0, 40.0, 9)
    scores = snr_grid_ref(*_ref_args(lnk, amp, re_vals, im_vals))
    _, i, j = link._grid_winner(lnk, amp, re_vals, im_vals)
    assert (i, j) == _ref_winner(scores, re_vals, im_vals) == (rows - 1, 0)
    # Identical rows (r_max = 0): equal score and |z_l|^2 in every block, so
    # the first cell in C order wins, in the first block.
    re_vals = np.zeros(rows)
    lnk = SingleLink(5 + 37j, 1.0, 1e-12)
    scores = snr_grid_ref(*_ref_args(lnk, amp, re_vals, im_vals))
    _, i, j = link._grid_winner(lnk, amp, re_vals, im_vals)
    assert i == 0
    assert (i, j) == _ref_winner(scores, re_vals, im_vals)


def test_all_singular_grid_has_no_winner():
    # R = 0 rows against X = -X_r: z_r + z_l = 0 in every cell of every block
    lnk = SingleLink(50j, 1.0, 1e-12)
    amp = AmplifierNoiseModel(10.0, 1e-9, 290.0)
    search = GridSpec(0.0, 50.0, 2 * link.GRID_BLOCK_ROWS, 1, include_open=False)
    re_vals, im_vals = np.zeros(search.n_re), np.array([-50.0])
    assert np.all(snr_grid_ref(*_ref_args(lnk, amp, re_vals, im_vals)) == -np.inf)
    assert link._grid_winner(lnk, amp, re_vals, im_vals) is None
    with pytest.raises(NumericalError, match="every grid candidate is singular"):
        optimize_load(lnk, amp, search)
    assert optimize_load(lnk, amp, GridSpec(0.0, 50.0, 2 * link.GRID_BLOCK_ROWS, 1))[0] is OPEN_CIRCUIT


def test_nan_max_grid_has_no_winner():
    # R^2 overflows from row 87 on, in the second block: those cells score
    # NaN, and a NaN anywhere leaves no grid winner, although the first block
    # has finite scores.
    lnk = SingleLink(5 + 37j, 10.0, 1e-12)
    amp = AmplifierNoiseModel(10.0, 1e-9, 290.0)
    search = GridSpec(2e154, 500.0, 130, 11, include_open=False)
    re_vals = np.linspace(0.0, search.r_max, search.n_re)
    im_vals = np.linspace(-search.x_max, search.x_max, search.n_im)
    with np.errstate(all="ignore"):
        ref = snr_grid_ref(*_ref_args(lnk, amp, re_vals, im_vals))
    assert np.isnan(ref.max()) and np.isfinite(ref[: link.GRID_BLOCK_ROWS]).all()
    assert link._grid_winner(lnk, amp, re_vals, im_vals) is None
    with pytest.raises(NumericalError):
        optimize_load(lnk, amp, search)
    assert optimize_load(lnk, amp, GridSpec(2e154, 500.0, 130, 11))[0] is OPEN_CIRCUIT


def _batch_case(seed, k=4, p=16):
    rng = np.random.default_rng(seed)
    base = rng.uniform(30, 70, size=k)
    z_r = np.diag(base).astype(np.complex128)
    z_r += 2.0 * (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    z_r = (z_r + z_r.T) / 2.0
    z_r += np.eye(k) * (abs(np.linalg.eigvalsh((z_r.real + z_r.real.T) / 2).min()) + 5.0)
    v_oc = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    loads = np.conj(z_r)[None, :, :] + 0.1 * (
        rng.standard_normal((p, k, k)) + 1j * rng.standard_normal((p, k, k))
    )
    return z_r, loads, v_oc


def test_batch_paths_agree():
    # the stacked perturbation solve against one solve per load
    for seed in range(5):
        z_r, loads, v_oc = _batch_case(seed)
        a = sum_power_batch_ref(z_r, loads, v_oc)
        b = perturbation_sum_powers(z_r, np.zeros_like(z_r), v_oc, loads)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-300)
