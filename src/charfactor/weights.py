"""Dominant weights, the staircase shift, and residue-block normalization:
`residue_normal_form` puts each position in the bucket of its residue mod
n in one scan, then sorts each bucket by decreasing value.  It gives None
when a class does not hold exactly m entries; `normalize_residue_blocks`
raises ValueError there, and on a length other than m*n."""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add, lt

from .perms import permutation_parity


def staircase(size):
    """(size-1, size-2, ..., 1, 0)."""
    return tuple(range(size - 1, -1, -1))


def check_dominant(lam):
    if any(map(lt, lam, lam[1:])):
        raise ValueError("weight not dominant")


def shifted_weight(lam):
    """lam + staircase; strictly decreasing whenever lam is dominant."""
    check_dominant(lam)
    return tuple(map(add, lam, range(len(lam) - 1, -1, -1)))


def is_residue_balanced(vec, m, n):
    """Does every residue class mod n contain exactly m entries of vec?"""
    return residue_normal_form(vec, m, n) is not None


def residue_normal_form(vec, m, n):
    """(vec with its residue-k entries in block k, decreasing, sign of the
    rearrangement), or None when vec is not residue-balanced."""
    buckets = [[] for _ in range(n)]
    for i, x in enumerate(vec):
        buckets[x % n].append(i)
    # 0-based source index for each target slot
    order = []
    for idxs in buckets:
        if len(idxs) != m:
            return None
        idxs.sort(key=vec.__getitem__, reverse=True)
        order += idxs
    return tuple(map(vec.__getitem__, order)), permutation_parity(order)


@lru_cache(maxsize=None)
def _staircase_sign(m, n):
    # the sign of sorting staircase(m*n) into residue blocks, once per shape
    return residue_normal_form(staircase(m * n), m, n)[1]


def normalize_residue_blocks(vec, m, n):
    """`residue_normal_form` of vec, which must have length m*n and be
    residue-balanced; ValueError otherwise."""
    if len(vec) != m * n:
        raise ValueError("vector length must be m*n")
    normal = residue_normal_form(vec, m, n)
    if normal is None:
        raise ValueError("residue condition fails")
    return normal


@lru_cache(maxsize=256)
def _block_offsets(m, n):
    # the shape-only half of factor_weights: slot k*m + j of a residue-
    # normal vector holds class k, and k + n*rho_j with rho = staircase(m)
    rho = staircase(m)
    return (tuple(k for k in range(n) for _ in rho),
            tuple(k + n * r for k in range(n) for r in rho))


def factor_weights(mu, m, n):
    """One dominant length-m weight per block k of mu in residue normal form:
    divide out the modulus via x -> (x - k)/n, then drop the staircase, as
    eta = (x - k - n*rho_j) // n.  A mu of length other than m*n, or with
    an entry outside the class of its block, raises ValueError."""
    classes, offsets = _block_offsets(m, n)
    if len(mu) != len(offsets):
        raise ValueError("vector length must be m*n")
    if tuple([x % n for x in mu]) != classes:
        raise ValueError("residue condition fails")
    flat = [(x - o) // n for x, o in zip(mu, offsets)]
    return tuple([tuple(flat[m * k:m * k + m]) for k in range(n)])


def dominant_weights(length, lo, hi):
    """All weakly decreasing integer tuples of the given length with entries
    in [lo, hi], in decreasing lexicographic order."""
    return itertools.combinations_with_replacement(range(hi, lo - 1, -1), length)
