"""Commuting POVMs: the exact eigenbasis shortcut versus the generic solver.

When all POVM elements commute they share an eigenbasis, a maximally
informative ensemble can be drawn from that basis, and the whole problem
collapses to the capacity of the classical channel p(j|i) = <i|Pi_j|i> —
one Blahut-Arimoto run, no non-convex search, and never more than D
ensemble states. The generic column-generation solver must land on the
same value.

Run:  python3 demos/commuting_fast_path.py
"""

import numpy as np

from infopower import Povm, SolverConfig, commuting_fast_path, see_saw_power

rng = np.random.default_rng(7)

# Build a random commuting POVM: diagonal weights in a random common basis.
dim, outcomes = 3, 5
g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
basis, _ = np.linalg.qr(g)
weights = rng.random((outcomes, dim)) + 0.05
weights /= weights.sum(axis=0)
povm = Povm(np.stack([(basis * w) @ basis.conj().T for w in weights]))

fast = commuting_fast_path(povm)
slow = see_saw_power(povm, SolverConfig(seed=1))

print(f"random commuting POVM, D = {dim}, {outcomes} outcomes")
print(f"  max commutator norm = {povm.max_commutator_norm():.3e}")
print(f"  fast path  W = {fast.w_estimate:.12f} bits "
      f"({len(fast.best_ensemble)} basis states, {fast.iterations_used} BA iterations)")
print(f"  generic    W = {slow.w_estimate:.12f} bits "
      f"({len(slow.best_ensemble)} states, converged = {slow.converged})")
print(f"  difference   = {abs(fast.w_estimate - slow.w_estimate):.3e} bits")
print(f"  fast-path ensemble size <= D: {len(fast.best_ensemble)} <= {dim}")
