"""Layer timings with pytest-benchmark.

Not part of the test suite (it sits outside `testpaths`); run it explicitly:

    PYTHONPATH=src python -m pytest benchmarks/test_layers.py

Each case times one layer on inputs built outside the timed call.
"""

import numpy as np
import pytest

from seqmix import gamp, zoo
from seqmix.verify import GMM_LAM, RIDGE_LAM

SPECS = {
    "logistic_gmm": lambda d: zoo.gmm_instance(alpha=1.0, lam=GMM_LAM, d=d),
    "two_token": lambda d: zoo.two_token_instance(alpha=1.2, lam=RIDGE_LAM, d=d),
}


def _dataset(instance, d, seed=0):
    spec = SPECS[instance](d)
    n = int(round(spec.dims.alpha * d))
    return spec, gamp.generate_dataset(spec, spec.nu, d=d, n=n, seed=seed)


@pytest.mark.parametrize("instance", sorted(SPECS))
def test_gamp_iteration(benchmark, instance):
    """One GAMP iteration at d = 1000, squared-design build included."""
    spec, data = _dataset(instance, 1000)
    res = benchmark(gamp.gamp_run, data, spec, max_iters=1, damping=0.0, record=False)
    assert np.all(np.isfinite(res.w_hat))


def test_risk_and_gradient(benchmark):
    """One empirical risk and gradient evaluation at d = 500."""
    spec, data = _dataset("logistic_gmm", 500)
    w = np.random.default_rng(1).standard_normal((500, spec.dims.r))
    total, grad = benchmark(gamp.empirical_risk_and_grad, w, data, spec)
    assert np.isfinite(total) and np.all(np.isfinite(grad))
