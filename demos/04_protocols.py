"""LOCC protocol instruments: teleportation, swapping, filtering, unlocking.

Every protocol is an explicit instrument (labeled Kraus families summing to a
trace-preserving map), so outcome probabilities and post-states come straight
from the Born rule.
"""

import numpy as np

import entkit as ek

print("Teleportation moves an unknown qutrit through a shared Bell pair:")
rho = ek.random_density_matrix([3], rng=2)
for br in ek.teleport(rho)[:3]:
    err = np.abs(br.post_state.matrix - rho.matrix).max()
    print(f"  outcome {br.label}: p = {br.probability:.4f}, "
          f"output deviation = {err:.2e}")
print("  ... all 9 outcomes reproduce the input exactly (p = 1/9 each)")

print()
print("Entanglement swapping relays the second subsystem to Bob:")
rho_xa = ek.random_density_matrix([2, 2], rng=3)
out = ek.entanglement_swap(rho_xa)
print("  |out - in| =", f"{np.abs(out.matrix - rho_xa.matrix).max():.2e}",
      " (X never met Bob's particle)")

print()
print("Local filtering is the simplest stochastic transformation:")
ghz = ek.ghz_state(3, 2)
filt, p = ek.local_filter_pure(ghz, [np.diag([1.0, 0.6])] * 3)
print(f"  diag(1, 0.6) on each qubit succeeds with p = {p:.4f}; "
      f"class stays {ek.slocc_class_3qubit(filt).value}")
collapsed, p = ek.local_filter_pure(ghz, [np.diag([1.0, 0.0]), np.eye(2), np.eye(2)])
print(f"  the singular filter diag(1, 0) collapses GHZ to "
      f"{ek.slocc_class_3qubit(collapsed).value} with p = {p:.2f}")
first, second = ek.local_filter(ghz, [np.diag([1.0, 0.6])] * 3)
print(f"  as a two-branch instrument: p(filtered) + p(depolarized) = "
      f"{first.probability + second.probability:.6f}")

print()
print("Unlocking the Smolin state: a Bell measurement on any two parties")
print("leaves the other two maximally entangled:")
for pair in ("CD", "AC"):
    outs = ek.unlock_smolin(pair)
    tangles = [round(ek.wootters_concurrence(b.post_state) ** 2, 6) for b in outs]
    print(f"  join {pair}: branch tangles = {tangles}")

print()
print("State-merging rates S(A|B), negative in the entanglement-gain regime:")
cases = {
    "GHZ": ek.ghz_state(3, 2),
    "Bell_AB x |c>": ek.product_state(ek.bell_state(2), ek.random_pure_state([2], rng=4)),
    "|abc>": ek.basis_state([2, 2, 2], [0, 1, 0]),
}
for name, psi in cases.items():
    print(f"  {name:14s} S(A|B) = {ek.merging_rate(psi, [0], [1]):+.4f}")

print()
print("Combing bookkeeping: per-block entropies against the total S(rho_A):")
combed = ek.product_state(ek.bell_state(2), ek.basis_state([2], [0]))
profile, total = ek.combing_entropy_profile(combed, 0, [[1], [2]])
print(f"  Bell_AB1 x |0>_B2: profile = {np.round(profile, 4)}, total = {total:.4f}")
