"""Whole paths and single eigenfields, the references some tests compare
against; the package steps paths only as streams of rows."""

import numpy as np

from stoflow import spectral as sp
from stoflow.eulerian import make_eulerian_problem
from stoflow.sde import step_paths


def stack_paths(problem, scheme, dt, increments):
    """Every row of step_paths on the path-major increments (K, nsteps, m),
    steps of dt, copied as it comes: the states (K, nsteps + 1, *x0.shape)
    and the final exit indices (K,)."""
    rows = []
    for x, exit_index in step_paths(problem, scheme, dt, increments.swapaxes(0, 1)):
        rows.append(x.copy())
    return np.stack(rows, axis=1), exit_index


def eulerian_path(u0, spec, dt, increments, scheme="heun", alpha=0.0,
                  radius_factor=10.0):
    """stack_paths of the potential-vorticity SDE from u0 on the increments
    (K, nsteps, n_modes), steps of dt: the q rows (K, nsteps + 1, M, M) and
    the exit indices.  eulerian._velocity rebuilds the velocities."""
    problem = make_eulerian_problem(u0, spec, alpha=alpha, radius_factor=radius_factor)
    return stack_paths(problem, scheme, dt, increments)


def eigenmode_field(spec, j):
    """The j-th unit eigenfield of the Q-Wiener basis (even j: cosine, odd
    j: sine), shape (2, M, M), placed one mode at a time."""
    kx, ky = spec.wavevectors[j // 2]
    d = np.array([-ky, kx], dtype=complex) / np.hypot(kx, ky)  # kperp/|k|
    amp = np.sqrt(2.0) / 2.0
    if j % 2 == 0:
        half = amp * d
    else:
        half = -1j * amp * d  # sin(k.x) = (e^{ikx} - e^{-ikx}) / 2i
    return sp._mode_pair(spec.N, int(kx), int(ky), half)
