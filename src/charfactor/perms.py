"""Permutations of {1..N} and the row/column subgroups of a block grid.

Positions 1..m*n are read as an n x m grid filled row by row: row k holds
positions {m*k+1, ..., m*k+m} and column v holds {v, v+m, ..., v+(n-1)m}.
The row subgroup permutes positions inside each row, the column subgroup
inside each column.  Enumeration orders are fixed, so logs are reproducible.
`row_subgroup` and `row_coset_reps` are lexicographic on image vectors;
`column_subgroup` is not, so `CosetAuditReport.to_dict` sorts its constants.
`row_coset_reps(..., outside=True)` keeps the cosets with no column-row
representative, deciding that once per row-block choice of the same walk.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

DEFAULT_ENUMERATION_BOUND = 9


class EnumerationTooLarge(ValueError):
    """A symmetric-group scale enumeration would exceed the size bound."""


def check_enumeration_bound(size, bound=DEFAULT_ENUMERATION_BOUND):
    """Raise EnumerationTooLarge, before any work, when an instance on
    S_size exceeds the enumeration bound."""
    if size > bound:
        raise EnumerationTooLarge(f"S_{size} exceeds the enumeration bound {bound}")


def permutation_parity(images):
    """Parity (+1 or -1) of a 0-based image tuple: (-1)^(size - cycles)."""
    seen = [False] * len(images)
    cycles = 0
    for i, j in enumerate(images):
        if not seen[i]:
            cycles += 1
            while not seen[j]:  # marks the cycle of i, i last
                seen[j] = True
                j = images[j]
    return -1 if (len(images) - cycles) & 1 else 1


class Perm:
    """A permutation of {1..N} stored as its image vector."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        self.images = images

    @classmethod
    def _unchecked(cls, images):
        perm = object.__new__(cls)
        perm.images = tuple(images)
        return perm

    @classmethod
    def identity(cls, size):
        return cls._unchecked(range(1, size + 1))

    @classmethod
    def transposition(cls, size, a, b):
        images = list(range(1, size + 1))
        images[a - 1], images[b - 1] = b, a
        return cls._unchecked(images)

    def __call__(self, i):
        return self.images[i - 1]

    def __mul__(self, other):
        # (self * other)(i) = self(other(i))
        if not isinstance(other, Perm):
            return NotImplemented
        return Perm._unchecked(self.images[j - 1] for j in other.images)

    def inverse(self):
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j - 1] = i + 1
        return Perm._unchecked(inv)

    @property
    def sign(self):
        return permutation_parity(tuple(x - 1 for x in self.images))

    def act(self, values):
        """Move the value at position i to position self(i), i.e.
        result[j] = values[inverse(j)]; composes as (a*b).act == a.act(b.act)."""
        values = tuple(values)
        if len(values) != len(self.images):
            raise ValueError("length mismatch")
        out = [None] * len(values)
        for i, j in enumerate(self.images):
            out[j - 1] = values[i]
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm({list(self.images)})"


class BlockStructure(namedtuple("BlockStructure", "m n")):
    """Shape of the n x m position grid whose rows and columns are the
    blocks of the row and column subgroups."""

    __slots__ = ()


def _coordinate_subgroup(blocks):
    # position p takes the image in slot where[p - 1] of the block
    # permutations laid end to end, in the order of blocks
    slots = [p for block in blocks for p in block]
    where = sorted(range(len(slots)), key=slots.__getitem__)
    choices = [list(itertools.permutations(b)) for b in blocks]
    for combo in itertools.product(*choices):
        flat = sum(combo, ())
        yield Perm._unchecked([flat[i] for i in where])


def row_subgroup(m, n):
    """Direct product of the symmetric groups on the row blocks; (m!)^n
    elements, each stabilizing every row block setwise."""
    rows = [tuple(range(m * k + 1, m * (k + 1) + 1)) for k in range(n)]
    return _coordinate_subgroup(rows)


def column_subgroup(m, n):
    """Direct product of the symmetric groups on the column blocks; (n!)^m
    elements."""
    cols = [tuple(range(v, m * n + 1, m)) for v in range(1, m + 1)]
    return _coordinate_subgroup(cols)


def is_column_row_product(perm, blocks):
    """Does perm factor as (column element) * (row element)?  Criterion: no
    two positions of one row block land in the same column block, that is,
    the pairs (row block of the position, column of its image) are m*n
    distinct ones, one set of keys k*m + (image mod m)."""
    m = blocks.m
    return len({q // m * m + p % m for q, p in enumerate(perm.images)}) == m * blocks.n


def row_coset_reps(m, n, bound=DEFAULT_ENUMERATION_BOUND, *, outside=False):
    """One representative per left coset of the row subgroup in S_(m*n),
    as a generator of `Perm` in lexicographic order; with outside, only
    the cosets with no column-row representative.

    A coset is determined by the image set of each row block; the canonical
    representative sorts each block's images ascending, which is the
    lexicographically least element of the coset.  Each block but the last
    chooses m of the images still free, in combinations order, and the last
    block takes the m left over: the complement of the i-th m-subset is
    the i-th from last of the other subsets.  A coset is outside once a
    chosen block has two images in one column; the leftover block is never
    tested, as n - 1 blocks with one image per column leave one per column.
    """
    check_enumeration_bound(m * n, bound)

    def assign(remaining, prefix, flagged):
        size = len(remaining) - m
        for chosen, rest in zip(itertools.combinations(remaining, m),
                                reversed(list(itertools.combinations(remaining, size)))):
            out = flagged or len({p % m for p in chosen}) < m
            if size > m:
                yield from assign(rest, prefix + chosen, out)
            elif out or not outside:
                yield Perm._unchecked(prefix + chosen + rest)

    return assign(tuple(range(1, m * n + 1)), (), False)
