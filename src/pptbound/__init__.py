"""Relative-entropy upper bound on distillable entanglement over the PPT cone.

The package computes min over PPT sigma of S(rho || sigma) by spectral
projected gradient, certifies candidate optimizers through first-order
conditions, and cross-checks everything against the families whose bound
is known in closed form.
"""
