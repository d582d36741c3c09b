"""The vertically lifted noise of the particle system and the Ito-Stratonovich
drift correction, which the Stratonovich-degeneracy checks read; the
package's particle path applies the kicks itself and never forms either."""

import numpy as np

from stoflow.qwiener import field_from_coefficients
from stoflow.spectral import evaluate_stack_at


def lifted_noise(spec, positions, velocities):
    """The stacked (Phi, eta) state [Phi.ravel(), eta.ravel()] of particles
    at positions with velocities, each (P, 2), and the vertical lift of the
    noise on it: diffusion(z, dW) kicks the velocity slots by
    (dW)(Phi(x_i)) and never touches the position slots."""
    P = len(positions)
    x0 = np.concatenate([np.ravel(positions), np.ravel(velocities)])

    def diffusion(z, dW):
        pos = z[:2 * P].reshape(P, 2)
        kicks = evaluate_stack_at(field_from_coefficients(spec, dW), pos)
        return np.concatenate([np.zeros(2 * P), kicks.ravel()])

    return x0, diffusion


def stratonovich_correction(diffusion, noise_variances, x):
    """Drift correction (1/2) tr[sigma'(x) sigma(x) Q] by central differences.

    Converts a Stratonovich drift into the equivalent Ito drift:
    b_ito = b_strat + correction.  Works for a black-box diffusion: column
    j of sigma(y) is diffusion(y, e_j), and Q is diagonal with entries
    noise_variances.
    """
    h = 1e-5 * (1.0 + float(np.linalg.norm(x)))
    lam = np.asarray(noise_variances, dtype=float)
    out = np.zeros(np.shape(x), dtype=np.result_type(x, float))
    for j in range(len(lam)):
        if lam[j] == 0.0:
            continue
        e = np.zeros(len(lam))
        e[j] = 1.0
        v = diffusion(x, e)
        if not np.any(v):
            continue
        col_plus = diffusion(x + h * v, e)
        col_minus = diffusion(x - h * v, e)
        out += lam[j] * (col_plus - col_minus) / (2.0 * h)
    return 0.5 * out
