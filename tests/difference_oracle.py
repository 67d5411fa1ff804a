"""The sorted-keys difference rule, kept as the oracle of ``reports``.

It visits every key of two operators in sorted order and returns the
first where their entries differ: a missing entry reads as zero, and in
float mode a difference within ``EPS_CMP`` counts as none.
``reports.first_difference`` takes a ``min`` over the differing keys
instead, and ``reports.column_witness`` folds it over a stream of
columns; both must agree with this.
"""

import braidforge.scalars as sc


def first_difference(a, b):
    """Smallest (row, col) where two operators differ, or None."""
    eps = sc.EPS_CMP if a.mode == sc.FLOAT else 0
    ea, eb = a.entries, b.entries
    for k in sorted(ea.keys() | eb.keys()):
        if abs(ea.get(k, 0) - eb.get(k, 0)) > eps:
            return k
    return None
