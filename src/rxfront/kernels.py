"""Vectorized SNR scoring of a rectangular load grid for the load optimizer."""

from __future__ import annotations

import numpy as np


def snr_grid(re_vals, im_vals, zr_re, zr_im, s_voc, gg, n_na, two_kt):
    """Output SNR of a loaded receiver at every (Re, Im) load of the grid.

    gg is the squared voltage gain, s_voc the open-circuit signal voltage
    density and two_kt = 2kT. Singular grid points score -inf; zero total
    noise scores +inf (flagged).
    """
    re2 = re_vals[:, None]
    im2 = im_vals[None, :]
    dr = zr_re + re2
    di = zr_im + im2
    d2 = dr * dr + di * di
    with np.errstate(divide="ignore", invalid="ignore"):
        w2 = (re2 * re2 + im2 * im2) / d2
        u2 = (zr_re * zr_re + zr_im * zr_im) / d2
        noise = n_na + gg * u2 * two_kt * re2
        signal = gg * w2 * s_voc
        out = np.where(noise > 0.0, signal / noise, np.inf)
    return np.where(d2 == 0.0, -np.inf, out)
