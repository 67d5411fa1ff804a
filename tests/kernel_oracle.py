"""The whole-column braid kernel, kept as the oracle of ``ybops``.

It pushes every basis column e_c of V^(x)k through each word as one
sparse dict, letter by letter, dropping exact zeros after every letter
and summing every entry in the order of the ``compose`` chain of the
embedded letters.  ``ybops._word_images`` carries the columns whose path
meets only single-entry columns of S as flat index lists, and must give
the same verdicts, witnesses and entries, bit for bit.
"""

from fractions import Fraction

import braidforge.scalars as sc
from braidforge.reports import column_witness
from braidforge.setsol import braid_words


def word_images(cols, d, n, k, words):
    """Yield (c, *images) for each basis column e_c of V^(x)k in turn."""
    span = d**n
    letters = {}
    for i in {i for word in words for i in word}:
        low = d ** (k - n - i)
        letters[i] = low, [[(r * low, v) for r, v in cols[c]] for c in range(span)]
    plans = [[letters[i] for i in word] for word in words]
    for c in range(d**k):
        images = []
        for plan in plans:
            vec = {c: 1}
            for low, lcols in plan:
                out = {}
                for x, xv in vec.items():
                    mid = x // low % span
                    base = x - mid * low
                    for r, v in lcols[mid]:
                        y = base + r
                        out[y] = out.get(y, 0) + v * xv
                vec = {y: v for y, v in out.items() if v != 0} if 0 in out.values() else out
            images.append(vec)
        yield c, *images


def braid_witness(s, d, n, side):
    """The column of the first (row, col) where the two braid sides differ, or None."""
    wit = column_witness(word_images(s.columns, d, n, 2 * n - 1, braid_words(n, side)), s.mode)
    return None if wit is None else wit["col"]


def word_entries(s, d, n, k, word):
    """The entries on V^(x)k of one word of s, in column order."""
    power = s.scale ** len(word)
    entries = {}
    for c, vec in word_images(s.columns, d, n, k, [word]):
        for r, v in vec.items():
            entries[(r, c)] = Fraction(v, power) if s.mode == sc.EXACT else v
    return entries
