"""Layered blocks, weighted selection, and the one-shot layer ack.

Favoring base-layer symbols during encoding makes the base decode early
(unequal recovery time), but afterwards most arriving symbols are pure
redundancy: their neighbors sit in the already-decoded base.  The joint
reduced-degree analysis quantifies that, and a single acknowledgment of
the whole base layer removes it.
"""

from ltfeedback import (
    LayerConfig,
    RsdParams,
    experiment_two_layer_ack,
    layered_redundancy,
    robust_soliton,
)

K = 100
ALPHA, BETA = 0.5, 9.0
dist = robust_soliton(RsdParams(K, 0.1, 1.0))
layers = LayerConfig((50, 50), (BETA, 1.0))

print(f"two layers of 50, base selected {BETA:.0f}x more often (k={K})")
print("\nredundancy probability over (undecoded base, undecoded refinement):")
grid = (0, 10, 25, 50)
print("             L_refine=" + "".join(f"{lr:8d}" for lr in grid))
table = layered_redundancy(dist, layers, (grid, grid))
for lb, cells in zip(grid, table):
    print(f"  L_base={lb:3d}      " + "".join(f"{c:8.3f}" for c in cells))
print("\nwith the base decoded (L_base=0) nearly two thirds of arriving")
print("symbols are useless; that is the whole second half of the transfer.")

RUNS = 50
print(f"\ntransmission comparison at k=300, {RUNS} runs:")
result = experiment_two_layer_ack(k=300, alpha=ALPHA, beta=BETA, runs=RUNS,
                                  seed=20_240_602)
for name, label in [
    ("two_layer_no_ack", "layered, no feedback"),
    ("two_layer_layer_ack", "layered, base acked when done"),
    ("single_layer", "unlayered baseline"),
]:
    stats = result.schemes[name]
    line = f"  {label:32s} overhead {stats.mean_overhead:6.3f}"
    done = stats.layer_completion_received
    if done.shape[1] == 2:
        line += (f"   base done @ {done[:, 0].mean():6.1f} rx,"
                 f" refinement @ {done[:, 1].mean():7.1f} rx")
    print(line)

no_ack = result.schemes["two_layer_no_ack"].mean_overhead
acked = result.schemes["two_layer_layer_ack"].mean_overhead
print(f"\none feedback message saves {(no_ack - acked) * 300:.0f} received"
      f" symbols per block on average")
