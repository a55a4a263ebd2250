"""Walk through partial search on a twelve-item database, stage by stage.

Twelve items, three blocks of four.  Finding the target itself needs three
quantum queries; finding just its block takes two: flip the target's sign,
invert about the average inside each block, flip again, invert about the
global average.  The run ends with every bit of amplitude inside the
target block.
"""
import numpy as np

from partialsearch import BlockConfig, TWELVE_ITEM_SCRIPT, script_stages

cfg = BlockConfig(n_addresses=12, n_blocks=3, target=5)
stages = script_stages(cfg, TWELVE_ITEM_SCRIPT, backend="dense")
labels = ["uniform start"] + [op.value for op in TWELVE_ITEM_SCRIPT]


def histogram(state):
    rows = []
    for amp in state.amplitudes:
        bar = "#" * round(abs(amp) * 24)
        sign = "-" if amp < 0 else " "
        rows.append(f"  {sign}{bar or '.'}  ({amp:+.4f})")
    return "\n".join(rows)


for label, state in zip(labels, stages):
    print(f"\n=== {label}  (queries so far: {state.queries})")
    print(histogram(state))

final = stages[-1]
block_mass = np.add.reduceat(np.abs(final.amplitudes) ** 2, [0, 4, 8])
print("\nblock probabilities:", np.round(block_mass, 12))
print("target probability:  ", round(abs(final.amplitudes[5]) ** 2, 12))

# The endpoint is exact: 3/sqrt(12) on the target, 1/sqrt(12) on its three
# block-mates, zero elsewhere.
expected = np.zeros(12)
expected[4:8] = 1 / np.sqrt(12)
expected[5] = 3 / np.sqrt(12)
assert np.max(np.abs(final.amplitudes - expected)) < 1e-12
assert final.queries == 2
print("\nMeasuring now names the target block with certainty after 2 queries,")
print("and even yields the target itself with probability 3/4.")
