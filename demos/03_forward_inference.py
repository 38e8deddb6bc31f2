"""
Recurrent cells and the stacked classifier, run by hand
=======================================================

The classifier is plain forward inference: conv1d, max pooling, GRU
layers, a dense head, and softmax, all driven from a JSON weights
bundle. This script first steps an LSTM cell with all-zero weights,
where every gate sits at exactly 0.5 and the numbers can be checked on
paper, then runs a full bundle over one window and over a stack of them.
"""

import numpy as np

from homeactivity import neural

# --- one LSTM step with zero weights ---------------------------------
# Every gate is sigmoid(0) = 0.5 and the candidate is 0.5, so the cell
# state lands on 0.25 and the output on 0.5 * sigmoid(0.25).
W = np.zeros((4, 1, 1))
U = np.zeros((4, 1, 1))
b = np.zeros((4, 1))
h, s = neural.lstm_cell_step(np.array([0.7]), np.zeros(1), np.zeros(1), W, U, b)
print(f"zero-weight LSTM step: state {s[0]:.2f}, output {h[0]:.8f}")

# The GRU cell used by the default stack has three gates instead.
Wg, Ug, bg = np.zeros((3, 2, 2)), np.zeros((3, 2, 1)), np.zeros((3, 2))
trace = neural.gru_forward(np.ones((4, 1)), Wg, Ug, bg, return_sequences=True)
print("zero-weight GRU trace:", np.round(trace[:, 0], 4))

# --- the full stack ---------------------------------------------------
# With zero weights every class score ties, so softmax is uniform over
# the class names no matter what the window contains.
classes = ("Jog", "Lie", "Sit", "Stand", "StairDown", "StairUp", "Walk")
bundle = neural.make_default_bundle(classes)
window = np.random.default_rng(1).normal(9.0, 2.0, (128, 3))
probs = neural.forward_bundle(bundle, window)
print("\nzero-weight bundle probabilities:", np.round(probs, 4))
print("predicted (tie broken by name):", neural.best_class(classes, probs))

# Seeded random weights give a real forward pass; probabilities still
# sum to one because softmax is the final layer.
bundle = neural.make_default_bundle(classes, seed=7)
probs = neural.forward_bundle(bundle, window)
print("\nseeded bundle probabilities:", np.round(probs, 4))
print("sum:", probs.sum())
print("predicted:", neural.best_class(classes, probs))

# A stack of windows runs in one call, one row of scores per window.
stack = np.random.default_rng(2).normal(9.0, 2.0, (4, 128, 3))
print("\npredicted for a stack of 4:",
      [neural.best_class(classes, p) for p in neural.forward_bundle(bundle, stack)])
