"""``fit_ahh`` finds each (parent, variable) pair's knot quantiles once per
fit: a parent's support does not change while the bases grow."""

import numpy as np

from pwlkit import learning
from pwlkit.learning import Dataset, FitConfig, fit_ahh


def test_each_support_is_quantiled_once(monkeypatch):
    g = np.linspace(0.0, 1.0, 41)
    X = np.array([(a, b) for a in g for b in g])
    h2 = np.maximum(X[:, 1] - 0.3, 0)
    h1 = np.maximum(0.6 - X[:, 0], 0)
    y = h2 + h1 + np.minimum(h2, h1)
    supports = []
    quantile = np.quantile

    def counting(xs, q, *args, **kwargs):
        supports.append(xs.tobytes())
        return quantile(xs, q, *args, **kwargs)

    monkeypatch.setattr(learning.np, "quantile", counting)
    _, trace, tree = fit_ahh(Dataset(X, y),
                             FitConfig(max_terms=8, seed=0, validation_split=0.2))
    grown = [r for r in trace.records if r.action == "add-pair"]
    assert len(grown) >= 2       # at least three growth scans
    assert len(supports) == len(set(supports))
    # one computation per (parent, variable) pair at most
    assert len(supports) <= X.shape[1] * (1 + len(tree))
