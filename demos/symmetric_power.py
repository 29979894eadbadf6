"""Informational power of symmetric measurements, certified by one probe.

A POVM covariant under a group that acts irreducibly on C^D has the
maximally mixed state as the average of an optimal ensemble, so its
optimal output distribution is q0_j = Tr(Pi_j)/D. Then
W = max_psi D(P(.|psi) || q0): one probe at q0, with its maxima folded
into an ensemble, certifies W without the generic solver. The qubit
SIC, the trine, the Hesse SIC in C^3 and the tensor powers of the SIC
all take that path in ``informational_power``; the table compares each W
with its closed form.

Run:  python3 demos/symmetric_power.py
"""

import time

import numpy as np

from infopower import (
    hesse_sic_povm,
    informational_power,
    tensor_power,
    tetrahedral_sic_povm,
    trine_povm,
)

sic = tetrahedral_sic_povm()
cases = [
    ("SIC", sic, np.log2(4 / 3)),
    ("trine", trine_povm(), np.log2(3 / 2)),
    ("Hesse SIC", hesse_sic_povm(), np.log2(3 / 2)),
    ("SIC(x)SIC", tensor_power(sic, 2), 2 * np.log2(4 / 3)),
    ("SIC(x)3", tensor_power(sic, 3), 3 * np.log2(4 / 3)),
]

print(f"{'POVM':10s} {'D':>2s} {'N':>3s} {'W (bits)':>16s} {'closed form':>16s} "
      f"{'|diff|':>9s} {'states':>6s} {'rounds':>6s} {'time':>8s}")
for name, povm, closed in cases:
    t0 = time.perf_counter()
    report = informational_power(povm)
    elapsed = time.perf_counter() - t0
    print(f"{name:10s} {povm.dim:2d} {povm.num_outcomes:3d} {report.w_estimate:16.12f} "
          f"{closed:16.12f} {abs(report.w_estimate - closed):9.1e} {len(report.best_ensemble):6d} "
          f"{report.iterations_used:6d} {elapsed:7.3f}s")
print("(1 round: the symmetric certificate answered; the generic solver reports its own)")
