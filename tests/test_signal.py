"""The signal experiment's own pieces, in ``stochfeas.signal``: the
circulant convolution and its kernel."""

import numpy as np
import pytest

from stochfeas.signal import circ_conv, gaussian_kernel_1d

from conftest import circulant_row


class TestConvolution:
    def test_circulant_row_reproduces_operator(self, rng):
        n = 16
        kernel = gaussian_kernel_1d(n, 3.0)
        x = rng.normal(size=n)
        y = circ_conv(x, kernel)
        for j in (0, 1, 7, 15):
            assert float(circulant_row(kernel, j) @ x) == pytest.approx(y[j], rel=1e-12)

    def test_kernel_normalized_and_symmetric(self):
        k = gaussian_kernel_1d(32, 5.0)
        assert k.sum() == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(k[1:], k[1:][::-1], rtol=1e-12)
