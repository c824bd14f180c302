import numpy as np
import pytest


class _DesignProducts:
    """numpy, with each np.dot against the design X recorded in products:
    ("fwd", rows) for a forward product b X', ("t", 1) for a transpose r X."""

    def __init__(self, X):
        self.X, self.products = X, []

    def __getattr__(self, name):
        return getattr(np, name)

    def dot(self, a, b):
        if b is self.X:
            self.products.append(("t", 1))
        elif getattr(b, "base", None) is self.X:
            self.products.append(("fwd", 1 if np.ndim(a) == 1 else len(a)))
        return np.dot(a, b)


@pytest.fixture
def design_products(monkeypatch):
    """design_products(X) swaps agsolver's numpy, where the objectives' matvecs
    run, for one that records each pass over X, and returns the record (a
    list).  X must be a float array, which the objective builders keep as is."""
    import hdsparse.agsolver as ag

    def install(X):
        counter = _DesignProducts(X)
        monkeypatch.setattr(ag, "np", counter)
        return counter.products

    return install
