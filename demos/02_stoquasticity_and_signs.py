"""Stoquasticity of the rotated Hamiltonian and ground-state sign structure.

A Hamiltonian is stoquastic when all off-diagonal matrix elements are <= 0;
then a ground state exists with all non-negative amplitudes (sign average 1).
Rotating the basis destroys this property at intermediate angles, which is
what later makes the state hard for a variational ansatz.
"""

import numpy as np

from nqs_tfim import exact
from nqs_tfim.hamiltonian import RotatedTfim, is_stoquastic, stoquastic_energy

L, lam = 8, 1.0

print(f"L = {L}, lambda = {lam}\n")
print(f"{'theta/pi':>9} {'stoquastic':>11} {'sign average':>14}")
for frac in (0.0, 0.1, 0.25, 0.4, 0.5):
    theta = frac * np.pi
    h = RotatedTfim(L, lam, theta)
    psi = exact.ground_states(h).states[:, 0]
    sign = exact.sign_average(psi)   # Born-weighted mean of sgn(Re psi)
    print(f"{frac:9.2f} {str(is_stoquastic(h)):>11} {sign:14.6f}")

# The sign-problem lower bound: replacing every off-diagonal element by
# -|element| can only lower the ground-state energy, and the gap between the
# two quantifies how much sign structure the true ground state carries.
theta = 0.25 * np.pi
h = RotatedTfim(L, lam, theta)
summary = exact.ground_states(h)
psi = summary.states[:, 0]
e_stoq = stoquastic_energy(h, np.abs(psi))
print(f"\ntheta = pi/4: E0 = {summary.energies[0]:.6f}, "
      f"sign-free bound from |psi| = {e_stoq:.6f}")
