"""The ensemble/POVM duality, walked through on the SIC example.

A POVM Lambda and a full-rank reference state sigma induce the ensemble
R(Lambda, sigma) with priors q_i = Tr[sigma Lambda_i] and states
sigma^(1/2) Lambda_i sigma^(1/2) / q_i; an ensemble S induces the POVM
Pi(S) with elements p_i sigma_S^(-1/2) rho_i sigma_S^(-1/2). The two maps
invert each other, and they exchange the roles of "measurement" and
"source": the dual objects are maximally informative for one another.

Run:  python3 demos/duality_walkthrough.py
"""

import numpy as np

from infopower import (
    duality_round_trip_check,
    ensemble_from_povm,
    informational_power,
    maximally_mixed,
    mutual_information,
    povm_from_ensemble,
    tetrahedral_sic_povm,
)

povm = tetrahedral_sic_povm()
sigma = maximally_mixed(2)

# POVM -> ensemble: for the SIC at sigma = I/2 this is the tetrahedral
# ensemble itself (priors 1/4, states along the SIC directions).
ensemble, dropped = ensemble_from_povm(povm, sigma)
print("SIC POVM -> dual ensemble at sigma = I/2")
print(f"  priors            = {np.round(ensemble.priors, 12)}")
print(f"  dropped outcomes  = {dropped}")

# ensemble -> POVM recovers the SIC exactly.
back = povm_from_ensemble(ensemble)
residual = max(
    float(np.linalg.norm(a - b)) for a, b in zip(back.elements, povm.elements)
)
print(f"  round-trip  ||Pi(R(Lambda, sigma)) - Lambda||  = {residual:.3e}")

report = duality_round_trip_check(povm, sigma)
print(f"  round-trip check: max residual {report.max_residual:.3e}, "
      f"passed = {report.passed}")

# The duality exchanges optimality: measure the dual ensemble with the POVM
# induced by the maximally informative ensemble S*, and the mutual
# information equals W(Lambda).
solved = informational_power(povm)
induced = povm_from_ensemble(solved.best_ensemble)
crossed = mutual_information(ensemble, induced)
print(f"  I(R(Lambda, I/2), Pi(S*)) = {crossed:.12f} bits")
print(f"  W(Lambda)                 = {solved.w_estimate:.12f} bits")
