"""Cumulant expansion of log psi and magnitude-ranked truncation.

log psi(s) = sum_A c_A prod_{i in A} s_i over subset bitmasks A; the
coefficients come from a fast Walsh-Hadamard transform. Keeping only the N
largest-|c_A| terms and re-exponentiating gives a controlled truncation whose
infidelity curve reveals how many effective parameters a state needs.
"""

import numpy as np

from nqs_tfim import cumulant, exact, sr
from nqs_tfim.hamiltonian import RotatedTfim
from nqs_tfim.sr import SrConfig

L, lam, theta = 8, 1.5, 0.2 * np.pi
h = RotatedTfim(L, lam, theta)
psi = exact.fix_phase(exact.ground_states(h).states[:, 0])

coeffs = cumulant.cumulant_coefficients(psi)
orders = cumulant.subset_orders(L)
ranking = cumulant.magnitude_ranking(coeffs)

print(f"L = {L}, lambda = {lam}, theta = 0.2 pi; ten largest coefficients:\n")
print(f"{'rank':>4} {'bitmask':>9} {'order':>5} {'|c_A|':>10}")
for rank in range(10):
    mask = ranking[rank]
    print(f"{rank:4d} {mask:09b} {orders[mask]:5d} "
          f"{abs(coeffs[mask]):10.4f}")

# train an RBM on the same problem and compare truncation curves
cfg = SrConfig(eta=0.01, n_iter=300, seed=7, alpha=1.0)
_, best = sr.multi_seed_run(h, cfg, 3)
n_var = best.trace.final_params.n_var
full_inf = exact.infidelity(best.state, psi)

ns = [1, 10, 20, 40, 80, 120, 160, 256]
exact_curve = dict(cumulant.infidelity_curve(psi, psi, ns))
rbm_curve = dict(cumulant.infidelity_curve(best.state, psi, ns))

print(f"\nRBM with n_var = {n_var} parameters, "
      f"full infidelity {full_inf:.2e}\n")
print(f"{'N kept':>7} {'exact-state trunc':>18} {'RBM-state trunc':>16}")
for n in ns:
    print(f"{n:7d} {exact_curve[n]:18.2e} {rbm_curve[n]:16.2e}")

print("\nThe exact state keeps improving as N grows; the RBM curve tracks it")
print(f"until roughly N = n_var = {n_var} and then flattens at the level the")
print("ansatz itself achieved: the parameter count caps the number of")
print("independent cumulant coefficients the state can encode.")
