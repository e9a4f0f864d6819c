"""``affine.halton`` draws the bits of scipy's scrambled Halton sampler.

The equivalence sweep (seed 11) and the facet samples (seed 7) used
``scipy.stats.qmc.Halton`` before pwlkit drew the points itself, so the
same seed must give the same points, bit for bit.
"""

import numpy as np
import pytest
from scipy.stats import qmc

from pwlkit.affine import halton

COUNTS = (1, 2, 511, 512, 4097)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", [7, 11, 0, 12345])
def test_halton_matches_scipy_bit_for_bit(seed, dim):
    for count in COUNTS:
        want = qmc.Halton(d=dim, seed=seed).random(count)
        got = halton(count, dim, seed)
        assert got.shape == want.shape == (count, dim)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (seed, dim, count)


def test_halton_points_lie_in_the_unit_cube():
    pts = halton(4097, 3, seed=11)
    assert np.all((pts >= 0.0) & (pts < 1.0))
    assert len(np.unique(pts, axis=0)) == 4097
    assert halton(0, 2, seed=11).shape == (0, 2)
