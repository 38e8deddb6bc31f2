"""
The recurrent cell and the stacked classifier, run by hand
==========================================================

The classifier is plain forward inference: conv1d, max pooling, GRU
layers, a dense head, and softmax, all driven from a JSON weights
bundle. This script first runs a GRU with all-zero weights, where every
gate sits at exactly 0.5 and the numbers can be checked on paper, then
runs a full bundle over one window and over a stack of them.
"""

import numpy as np

from homeactivity import neural

# --- a GRU with zero weights ------------------------------------------
# The update and reset gates are sigmoid(0) = 0.5 and the candidate is
# tanh(0) = 0, so each step halves the state: from zero it stays zero.
W, U, b = np.zeros((3, 2, 2)), np.zeros((3, 2, 1)), np.zeros((3, 2))
trace = neural.gru_forward(np.ones((4, 1)), W, U, b, return_sequences=True)
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
