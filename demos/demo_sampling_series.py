"""Differentiation and reconstruction from geometrically spaced samples.

Members of the Bernstein class (c, T) are determined, on the positive
reals, by samples on the lattice e^{k pi/T}.  Two series recover the
weighted derivative from such samples, and the Valiron-type formula
rebuilds the whole weighted restriction r^c f(r, 0) from the ring samples
plus two numbers at r = 1.
"""

import math

import numpy as np

from mellin_polar import (
    PolarPoint,
    SampleSet,
    bernstein_check,
    boas_derivative,
    make_mellin_sine,
    mellin_translate,
    theta_oracle,
    valiron_derivative,
    valiron_lin_form,
    valiron_reconstruct,
)

c, T = 0.5, 2.0
member = mellin_translate(make_mellin_sine(c, T), math.exp(math.pi / (6.0 * T)))
p = PolarPoint(1.0, 0.0)
oracle = theta_oracle(member, p)

print(f"== differentiating a translated sine member (c={c}, T={T}) ==")
print(f"  exact weighted derivative at (1, 0): {oracle:.10f}")
print(f"  {'n':>4s} {'series (2n samples)':>24s} {'error':>10s} {'a-priori bound':>15s}")
for n in (4, 16, 64):
    rep = boas_derivative(member, p, n)
    print(f"  {n:4d} {rep.value.real:24.12f} {abs(rep.value - oracle):10.2e}"
          f" {rep.apriori_bound:15.2e}")
rep = valiron_derivative(member, p, 16)
print(f"  the Valiron-derived form at n=16 is at {abs(rep.value - oracle):.2e}:")
print("  on any translated sine its ring contributions cancel in +/-k pairs and")
print("  the central difference alone is exact; see demo_error_bounds.py for the")
print("  generic decay rates on a member without that alignment.")

print()
print("== reconstructing r^c f(r, 0) from ring samples ==")
n = 128
samples = SampleSet.from_member(member, n)
print(f"  sample set: f(1,0), its weighted derivative, and {2 * n} ring samples")
print(f"  {'r':>6s} {'reconstructed':>16s} {'true':>16s} {'error':>10s} {'bound':>10s}")
for r in (0.6, 1.0, 1.37, 2.0):
    rep = valiron_reconstruct(samples, r, n)
    true = complex(member.weighted_profile(math.log(r), 0.0))
    print(f"  {r:6.2f} {rep.value.real:16.10f} {true.real:16.10f}"
          f" {abs(rep.value - true):10.2e} {rep.apriori_bound:10.2e}")

print()
print("== the same reconstruction through the lin kernel ==")
r = 1.37
lin = valiron_lin_form(samples, r, n)
recon = valiron_reconstruct(samples, r, n).value * r ** (-c)
print(f"  lin-kernel form:    {lin:.14f}")
print(f"  series form * r^-c: {recon:.14f}")

print()
print("== the Bernstein inequality is attained by the sine ==")
for cc, TT in [(0.0, 1.0), (0.5, 2.0)]:
    ratio = bernstein_check(make_mellin_sine(cc, TT))
    print(f"  class (c={cc}, T={TT}): norm ratio {ratio:.6f}  <=  T = {TT}")
