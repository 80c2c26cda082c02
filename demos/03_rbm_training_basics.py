"""Training an RBM wavefunction by stochastic reconfiguration.

All expectation values are exact sums over the full Hilbert space (no Monte
Carlo), so the optimization is deterministic given the seed. In the trivial
basis (theta = 0) the ground state is positive and the ansatz converges to
machine-level infidelity within a few hundred iterations.
"""

import numpy as np

from nqs_tfim import exact, rbm, sr
from nqs_tfim.hamiltonian import RotatedTfim
from nqs_tfim.sr import SrConfig

L, lam, theta = 6, 1.5, 0.0
h = RotatedTfim(L, lam, theta)
summary = exact.ground_states(h)
e0 = summary.energies[0]

cfg = SrConfig(eta=0.02, n_iter=500, seed=5, alpha=1.0)
trace = sr.optimize(h, cfg)

print(f"L = {L}, lambda = {lam}, theta = {theta}, exact E0 = {e0:.8f}\n")
print(f"{'iteration':>10} {'energy':>14} {'variance':>12} {'|force|':>12}")
for it in (0, 10, 50, 100, 250, 499):
    print(f"{it:10d} {trace.energies[it].real:14.8f} "
          f"{trace.variances[it]:12.2e} {trace.grad_norms[it]:12.2e}")

psi = rbm.full_state_vector(trace.final_params)
print(f"\nrelative energy error: "
      f"{exact.relative_energy_error(trace.final_energy.real, e0):.2e}")
print(f"infidelity vs exact ground state: "
      f"{exact.infidelity(psi, summary.states[:, 0]):.2e}")

# learning-rate search: sample eta uniformly, keep the lowest final energy
best = sr.hyperparameter_search(h, trials=10,
                                base=SrConfig(n_iter=200, seed=1, alpha=1.0))
print(f"\n10-trial search picked eta = {best.config.eta:.4f} "
      f"(final energy {best.trace.final_energy.real:.8f})")
