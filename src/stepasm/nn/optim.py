"""Adam over a named parameter dict."""

import numpy as np

from ..errors import ShapeMismatchError


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Standard Adam (betas BETA1/BETA2, EPS in the denominator) with bias
    correction.

    Parameters are a name -> Tensor mapping; update order follows insertion
    order of the dict, so runs are reproducible.
    """

    def __init__(self, params, lr):
        self.params = dict(params)
        self.lr = float(lr)
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        # per-parameter scratch, so a step allocates no temporaries
        self._scratch = {
            k: (np.empty_like(p.data), np.empty_like(p.data)) for k, p in self.params.items()
        }

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ShapeMismatchError(
                    f"gradient shape {g.shape} != parameter shape {p.data.shape} ({name})"
                )
            m = self.m[name]
            v = self.v[name]
            a, b = self._scratch[name]
            # the textbook update, operation for operation:
            # m = BETA1 m + (1 - BETA1) g;  v = BETA2 v + (1 - BETA2) g g;
            # p -= lr (m / bc1) / (sqrt(v / bc2) + EPS)
            np.multiply(g, 1.0 - BETA1, out=a)
            m *= BETA1
            m += a
            np.multiply(g, 1.0 - BETA2, out=a)
            a *= g
            v *= BETA2
            v += a
            np.divide(v, bc2, out=a)
            np.sqrt(a, out=a)
            a += EPS
            np.divide(m, bc1, out=b)
            b *= self.lr
            b /= a
            p.data -= b
