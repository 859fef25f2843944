"""The power-law residuals only the tests read: acceptance criterion 3 and
``test_matfun`` hold the quadrature powers to the adjoint and semigroup
identities."""

import numpy as np

from sqrtdom.matfun import QuadratureSpec, frac_power_quad


def check_power_laws(H: np.ndarray, alpha: float, beta: float,
                     quad: QuadratureSpec | None = None) -> tuple[float, float]:
    """Relative residuals of the adjoint and semigroup power identities.

    Returns ``(||(H^a)* - (H*)^a|| / ||H^a||,
    ||H^a H^b - H^(a+b)|| / ||H^(a+b)||)``; both should sit at quadrature
    accuracy for an accretive input.
    """
    if not 0.0 < alpha + beta < 1.0:
        raise ValueError("alpha + beta must lie in (0, 1)")
    Ha = frac_power_quad(H, alpha, quad)
    Hb = frac_power_quad(H, beta, quad) if beta != alpha else Ha
    Hab = frac_power_quad(H, alpha + beta, quad)
    Hstar_a = frac_power_quad(H.conj().T, alpha, quad)
    adj = np.linalg.norm(Ha.conj().T - Hstar_a) / np.linalg.norm(Ha)
    semi = np.linalg.norm(Ha @ Hb - Hab) / np.linalg.norm(Hab)
    return adj, semi
