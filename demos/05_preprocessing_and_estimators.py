#!/usr/bin/env python3
"""From raw sequences to comparable entropy estimates.

The pipeline collapses adjacent repeats (no self-loops in the fitted
matrix), pools rare tokens into one placeholder, and collapses again.
The cleaned corpus then feeds every estimator, from the crude pooled
frequency count down to the lag-mixture plug-in.
"""

import numpy as np

from lamp_entropy import (
    Induced,
    SequenceCorpus,
    lamp_plugin_estimate,
    markov_plugin_estimate,
    path_level_estimate,
    preprocess,
    sequence_level_estimate,
    simulate_markov,
    validate_stochastic,
)

# Synthetic "listening histories": a first-order chain over five artists,
# plus stutters and one-off tokens that the pipeline has to clean up.
matrix = validate_stochastic(
    [[0.0, 0.5, 0.2, 0.2, 0.1],
     [0.4, 0.0, 0.3, 0.2, 0.1],
     [0.2, 0.3, 0.0, 0.3, 0.2],
     [0.3, 0.2, 0.3, 0.0, 0.2],
     [0.25, 0.25, 0.25, 0.25, 0.0]],
    ["jazz", "rock", "folk", "soul", "punk"],
)

rng = np.random.default_rng(123)
sequences = []
for user in range(300):
    seq = simulate_markov(matrix, 200, seed=user)
    # sprinkle in rare one-off tokens and stutters
    for _ in range(rng.integers(0, 3)):
        pos = int(rng.integers(0, len(seq)))
        seq.insert(pos, f"bootleg_{user}_{pos}")
    pos = int(rng.integers(1, len(seq)))
    seq.insert(pos, seq[pos - 1])
    sequences.append(seq)

corpus = SequenceCorpus.from_sequences(sequences)
cleaned, stages = preprocess(corpus, min_count=10, rare_token="<other>")
print("preprocessing stages:")
for stage in stages:
    extra = f", replaced={stage['replaced']}" if "replaced" in stage else ""
    print(f"  {stage['stage']:12s} sequences={stage['n_sequences']} "
          f"N={stage['N']:6d} vocab={stage['vocab']}{extra}")

print()
reports = [
    sequence_level_estimate(cleaned),
    path_level_estimate(cleaned),
    markov_plugin_estimate(cleaned, Induced(2.0**-15)),
    lamp_plugin_estimate(cleaned, 3, Induced(2.0**-15)),
]
print(f"{'estimator':28s} {'bits/symbol':>12s}")
for report in reports:
    print(f"{report.method.value:28s} {report.bits_per_symbol:12.5f}")

kernel = reports[-1].details["kernel"]
print()
print("fitted lag kernel:", np.round(kernel, 3))
print("Pooled frequencies ignore all transition structure and land near")
print("the maximum; the plug-in estimators use it and report far less.")
print("On genuinely first-order data the fitted kernel collapses onto")
print("lag 1, so the two plug-ins agree.")
