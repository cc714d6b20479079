"""How decoding progress reshapes the degrees a receiver actually sees.

The encoder keeps sampling the same degree distribution, yet every decoded
input symbol makes arriving symbols shrink when known neighbors are
stripped off.  This demo builds the robust soliton for k=100, shows the
reduced distribution sliding toward low degrees as decoding progresses,
shows the price (redundant, degree-zero arrivals), and shows the two
fixes: acknowledgments, and the adaptive distribution that avoids
redundancy without losing the shift.
"""

import math

import numpy as np

from ltfeedback import (
    RsdParams,
    adaptive_degree_dist,
    reduced_degree_dist,
    redundancy_curve,
    redundancy_curve_acked,
    robust_soliton,
)

K = 100
params = RsdParams(k=K, c=0.1, delta=1.0)
dist = robust_soliton(params)


def bar(p, scale=260):
    return "#" * int(round(p * scale))


spike = math.ceil(K / params.spike_scale)
print(f"robust soliton, k={K}, c=0.1, delta=1")
print(f"  mass at degree 1: {dist.pmf[1]:.4f}")
print(f"  boost spike at degree {spike} "
      f"({dist.pmf[spike]:.4f}, vs {dist.pmf[spike + 1]:.4f} just above)")

print("\nreduced degree distribution after stripping, for undecoded counts L:")
for undecoded in (100, 70, 40, 10):
    reduced = reduced_degree_dist(dist, undecoded)
    mean_degree = float(np.arange(K + 1) @ reduced.pmf)
    print(f"\n  L = {undecoded:3d}   mean reduced degree {mean_degree:5.2f}   "
          f"redundancy {reduced.pmf[0]:.4f}")
    for d in range(0, 6):
        print(f"    degree {d}: {reduced.pmf[d]:.4f} {bar(reduced.pmf[d], 60)}")

print("\nprobability an arriving symbol is pure redundancy, vs decoded count:")
curve = redundancy_curve(dist)
for decoded in range(0, 101, 10):
    p0 = curve[decoded]
    print(f"  {decoded:3d} decoded: {p0:.4f} {bar(p0, 80)}")

print("\nacknowledgments cut redundancy: L=20 undecoded, sweeping acked count M")
curve = redundancy_curve_acked(dist, 20)
for acked in (0, 20, 40, 60, 80):
    p0 = curve[acked]
    print(f"  M = {acked:2d}: {p0:.4f} {bar(p0, 80)}")
print("(strictly decreasing; at M = k-L the encoder law reaches the receiver intact)")

print("\nadaptive distribution over the L remaining symbols (L=40):")
rho = adaptive_degree_dist(dist, 40)
print(f"  support 1..{rho.k}, no degree-0 mass, sums to {rho.pmf.sum():.6f}")
for d in range(1, 6):
    print(f"    degree {d}: {rho.pmf[d]:.4f} {bar(rho.pmf[d], 60)}")
print("it equals the reduced distribution with the redundant bin removed,")
print("so the receiver keeps the low-degree shift and wastes nothing.")
