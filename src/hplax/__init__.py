"""Exact-arithmetic tables, nearest-neighbor recurrence fields, 3x3 transition
matrices with their zero-curvature check, and the lattice boundary-value
problem for a pair of rational moment sequences."""
