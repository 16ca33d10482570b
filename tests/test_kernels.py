import numpy as np

from rxfront import kernels
from rxfront.arrays import perturbation_sum_powers
from oracles import snr_grid_ref, sum_power_batch_ref


def _grid_case(seed):
    rng = np.random.default_rng(seed)
    re_vals = np.linspace(0.0, rng.uniform(50, 400), 37)
    im_vals = np.linspace(-200.0, 200.0, 41)
    args = (
        re_vals,
        im_vals,
        rng.uniform(0.5, 200),
        rng.uniform(-200, 200),
        10.0 ** rng.uniform(-13, -10),
        rng.uniform(1, 1000),
        10.0 ** rng.uniform(-12, -8),
        8.0e-21,
    )
    return args


def test_grid_paths_agree():
    for seed in range(5):
        args = _grid_case(seed)
        a = snr_grid_ref(*args)
        b = kernels.snr_grid(*args)
        assert a.shape == b.shape
        finite = np.isfinite(a)
        assert np.array_equal(finite, np.isfinite(b))
        assert np.allclose(a[finite], b[finite], rtol=1e-13, atol=0.0)
        assert np.array_equal(a[~finite], b[~finite])  # same inf signs


def test_grid_handles_singular_and_noiseless_points():
    re_vals = np.array([0.0, 50.0])
    im_vals = np.array([-25.0, 0.0])
    # z_r = -50+25j is non-physical but exercises the d2 == 0 branch
    a = kernels.snr_grid(re_vals, im_vals, -50.0, 25.0, 1e-12, 100.0, 0.0, 8e-21)
    b = snr_grid_ref(re_vals, im_vals, -50.0, 25.0, 1e-12, 100.0, 0.0, 8e-21)
    assert a[1, 0] == -np.inf and b[1, 0] == -np.inf
    assert a[0, 1] == np.inf and b[0, 1] == np.inf  # re=0 kills the Johnson term


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
