"""The paper's second characterization: W as the accessible information of
an ensemble that the measurement itself induces.

For a POVM Pi and a state sigma, R(Pi, sigma) is the ensemble with priors
Tr[sigma Pi_j] and states sigma^(1/2) Pi_j sigma^(1/2) / Tr[sigma Pi_j].
The paper shows W(Pi) = max over sigma of the accessible information of
R(Pi, sigma). The chain below follows it at the optimum: solve W, take the
average sigma* of the solved ensemble R*, and measure R(Pi, sigma*) with the
POVM that R* induces. The mutual information reached is W itself.

Run:  python3 demos/second_characterization.py
"""

import numpy as np

from infopower import (
    ensemble_average,
    ensemble_from_povm,
    informational_power,
    mutual_information,
    povm_from_ensemble,
    tetrahedral_sic_povm,
    trine_povm,
)

for name, povm in (("SIC", tetrahedral_sic_povm()), ("trine", trine_povm())):
    solved = informational_power(povm)
    sigma = ensemble_average(solved.best_ensemble)
    dual, _ = ensemble_from_povm(povm, sigma)
    induced = povm_from_ensemble(solved.best_ensemble)
    reached = mutual_information(dual, induced)
    print(f"{name} POVM, D = {povm.dim}, {povm.num_outcomes} outcomes")
    print(f"  W(Pi)                        = {solved.w_estimate:.15f} bits "
          f"from R* of {len(solved.best_ensemble)} states")
    print(f"  sigma* = average of R*, eigenvalues {np.round(np.linalg.eigvalsh(sigma.matrix), 12)}")
    print(f"  R(Pi, sigma*)                : {len(dual)} states, one per outcome")
    print(f"  Pi(R*)                       : {induced.num_outcomes} outcomes")
    print(f"  I(R(Pi, sigma*), Pi(R*))     = {reached:.15f} bits")
    print(f"  difference                   = {abs(reached - solved.w_estimate):.1e} bits")
