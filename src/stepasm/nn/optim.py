"""Adam over a named parameter dict, stepped over one flat buffer."""

import numpy as np

from ..errors import ShapeMismatchError


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# elements per slice of a step: the slices of the six arrays a step touches
# stay in cache from one operation to the next
CHUNK = 1 << 15


class Adam:
    """Standard Adam (betas BETA1/BETA2, EPS in the denominator) with bias
    correction.

    Parameters are a name -> Tensor mapping. The parameter values, their
    gradients and both moments each live in one flat array, in the dict's
    order, and each parameter's ``data`` becomes a view into the first, so a
    step runs its operations over CHUNK-element slices of all parameters at
    once, not per parameter. Every element gets the same operations in the same order, so
    the bits do not depend on the slicing. A parameter whose ``data`` was
    rebound since is copied back into its view before the step.
    """

    def __init__(self, params, lr):
        self.params = dict(params)
        self.lr = float(lr)
        self.t = 0
        size = sum(p.data.size for p in self.params.values())
        self._values = np.empty(size)
        self._grads = np.empty(size)
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        # scratch, so a step allocates no temporaries
        self._a = np.empty(min(size, CHUNK))
        self._b = np.empty(min(size, CHUNK))
        self._views = []
        end = 0
        for p in self.params.values():
            start, end = end, end + p.data.size
            view = self._values[start:end].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self._views.append((view, self._grads[start:end].reshape(view.shape)))

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for (name, p), (view, grad) in zip(self.params.items(), self._views):
            if p.data is not view:
                view[...] = p.data
                p.data = view
            if p.grad is None:
                grad.fill(0.0)
            elif p.grad.shape != view.shape:
                raise ShapeMismatchError(
                    f"gradient shape {p.grad.shape} != parameter shape {view.shape} ({name})"
                )
            else:
                grad[...] = p.grad
        for lo in range(0, self._values.size, CHUNK):
            part = slice(lo, lo + CHUNK)
            p, g, m, v = self._values[part], self._grads[part], self.m[part], self.v[part]
            a, b = self._a[:p.size], self._b[:p.size]
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
            p -= b
