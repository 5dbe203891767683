"""Dominant weights, the staircase shift, and residue-block normalization."""

from __future__ import annotations

import itertools

from .perms import permutation_parity


def staircase(size):
    """(size-1, size-2, ..., 1, 0)."""
    return tuple(range(size - 1, -1, -1))


def check_dominant(lam):
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError("weight not dominant")


def shifted_weight(lam):
    """lam + staircase; strictly decreasing whenever lam is dominant."""
    check_dominant(lam)
    return tuple(a + b for a, b in zip(lam, staircase(len(lam))))


def is_residue_balanced(vec, m, n):
    """Does every residue class mod n contain exactly m entries of vec?"""
    counts = [0] * n
    for x in vec:
        counts[x % n] += 1
    return all(c == m for c in counts)


def normalize_residue_blocks(vec, m, n):
    """Rearrange vec so residue-k entries occupy block k, decreasing inside
    each block; returns (rearranged vector, sign of the rearrangement)."""
    if len(vec) != m * n:
        raise ValueError("vector length must be m*n")
    # 0-based source index for each target slot
    order = []
    for k in range(n):
        idxs = [i for i, x in enumerate(vec) if x % n == k]
        if len(idxs) != m:
            raise ValueError("residue condition fails")
        idxs.sort(key=lambda i: vec[i], reverse=True)
        order.extend(idxs)
    return tuple(vec[i] for i in order), permutation_parity(tuple(order))


def factor_weights(mu, m, n):
    """One dominant length-m weight per residue block of mu: divide out the
    modulus on block k via x -> (x - k)/n, then drop the staircase."""
    rho = staircase(m)
    out = []
    for k in range(n):
        block = sorted(mu[m * k: m * (k + 1)], reverse=True)
        if any(x % n != k for x in block):
            raise ValueError("residue condition fails")
        out.append(tuple((x - k) // n - r for x, r in zip(block, rho)))
    return tuple(out)


def dominant_weights(length, lo, hi):
    """All weakly decreasing integer tuples of the given length with entries
    in [lo, hi], in decreasing lexicographic order."""
    return itertools.combinations_with_replacement(range(hi, lo - 1, -1), length)
