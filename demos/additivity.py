"""Additivity of informational power over tensor products.

W is additive: measuring two systems with Pi_1 (x) Pi_2 conveys exactly
W(Pi_1) + W(Pi_2) — entangled input ensembles cannot beat product ones.
The check below exercises two solver paths: projective (x) projective
stays commuting (exact fast path), while SIC (x) SIC, in dimension 4 with
16 outcomes, is certified by the symmetric certificate, one probe at the
maximally mixed output.

Run:  python3 demos/additivity.py
"""

from infopower import additivity_check, tetrahedral_sic_povm
from infopower.objects import standard_projective_povm

print("projective(2) (x) projective(3): commuting, exact")
rep = additivity_check(standard_projective_povm(2), standard_projective_povm(3))
print(f"  W1 = {rep.w1:.12f}   W2 = {rep.w2:.12f}")
print(f"  W(Pi1 (x) Pi2) = {rep.w12:.12f}   gap = {rep.gap:.3e} bits")

print()
print("SIC (x) SIC: non-commuting, symmetric certificate in D = 4")
rep = additivity_check(tetrahedral_sic_povm(), tetrahedral_sic_povm())
print(f"  W(SIC)           = {rep.w1:.12f} bits")
print(f"  2 * W(SIC)       = {2 * rep.w1:.12f} bits")
print(f"  W(SIC (x) SIC)   = {rep.w12:.12f} bits")
print(f"  additivity gap   = {rep.gap:.3e} bits")
