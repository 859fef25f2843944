"""The continuum oracle for kappa, which only the tests read: constant
coefficients on [0, 1] with Dirichlet ends, in the sine basis.

For constant p, q, r and s the operator is ``L = -p u'' + (r - s) u' + q u``.
The gauge ``u = e^(beta x) v`` with ``beta = (r - s)/(2p)`` gives
``L = M_beta T M_beta^-1`` for the multiplication ``M_beta`` by
``e^(beta x)`` and ``T = -p d^2/dx^2 + c``, ``c = q + (r - s)^2/(4p)``.  T is
diagonal in the L2-orthonormal sine basis ``sqrt(2) sin(k pi x)``, with
``mu_k = (k pi)^2``, and so is the unit-diffusion reference.  Kappa is
``cond_2`` of ``W_N = M_beta diag((p mu_k + c + E)^alpha) M_-beta
diag((mu_k + E)^-alpha)`` on the first N sine modes.  The code shares
nothing with the finite-element assembly or the power routes.
"""

import numpy as np
import scipy.linalg as sla


def gauge_matrix(beta: complex, N: int) -> np.ndarray:
    """``M_beta`` on the first N sine modes.

    ``2 int_0^1 e^(beta x) sin(j pi x) sin(k pi x) dx = I(|j - k|) -
    I(j + k)`` with ``I(m) = beta ((-1)^m e^beta - 1)/(beta^2 + m^2 pi^2)``;
    the trivial gauge is the identity.
    """
    if beta == 0:
        return np.eye(N)
    m = np.arange(2 * N + 1)
    I = (beta * ((-1.0) ** m * np.exp(beta) - 1)
         / (beta ** 2 + (m * np.pi) ** 2))
    j = np.arange(1, N + 1)
    return I[np.abs(j[:, None] - j[None, :])] - I[j[:, None] + j[None, :]]


def continuum_kappa(p: complex, q: complex, r: complex, s: complex,
                    E: float, alpha: float, N: int) -> float:
    """``cond_2(W_N)``: kappa of the constant-coefficient operator against
    its unit-diffusion reference at power ``alpha``, truncated at N modes."""
    beta = (r - s) / (2 * p)
    c = q + (r - s) ** 2 / (4 * p)
    mu = (np.arange(1, N + 1) * np.pi) ** 2
    W = ((gauge_matrix(beta, N) * ((p * mu + c + E) ** alpha)[None, :])
         @ (gauge_matrix(-beta, N) * ((mu + E) ** -alpha)[None, :]))
    sv = sla.svdvals(W)
    return float(sv[0] / sv[-1])
