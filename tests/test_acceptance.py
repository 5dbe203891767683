"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Everything here is exact arithmetic; the stated time
budgets are hard limits.
"""

import hashlib
import math
import time

import pytest

from charfactor.perms import BlockStructure, is_column_row_product
from charfactor.characters import (coxeter_value, schur_at_point,
                                   twisted_numerator,
                                   twisted_vandermonde_closed)
from charfactor.weights import (dominant_weights, is_residue_balanced,
                                shifted_weight)
from charfactor.factorize import factorize, verify_numeric, verify_symbolic
from charfactor.cli import main, run_benchmark
from oracles import (column_row_products, evaluate, schur_polynomial,
                     symmetric_group, twisted_vandermonde_product)

import random


def report(name, ok, elapsed, budget=None):
    status = "PASS" if ok else "FAIL"
    suffix = f", budget {budget}s" if budget is not None else ""
    line = f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s{suffix})"
    print(line)
    assert ok, line
    if budget is not None:
        assert elapsed < budget, f"{name} over budget: {elapsed:.2f}s >= {budget}s"


def test_criterion_1_denominator_formula():
    start = time.perf_counter()
    ok = True
    for m, n in ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)):
        ok = ok and (twisted_vandermonde_product(m, n)
                     == twisted_vandermonde_closed(m, n))
    report("1 denominator direct == closed", ok,
           time.perf_counter() - start, budget=10)


def test_criterion_2_unbalanced_numerators_vanish():
    start = time.perf_counter()
    ok = True
    checked = 0
    for m, n in ((2, 2), (2, 3)):
        for lam in dominant_weights(m * n, 0, 3):
            shifted = shifted_weight(lam)
            if is_residue_balanced(shifted, m, n):
                continue
            checked += 1
            ok = ok and not twisted_numerator(shifted, m, n)
    assert checked > 0
    report(f"2 vanishing numerators ({checked} weights)", ok,
           time.perf_counter() - start, budget=60)


def test_criterion_3_main_factorization():
    start = time.perf_counter()
    ok = True
    checked = 0
    for m, n in ((2, 2), (3, 2), (2, 3)):
        for lam in dominant_weights(m * n, 0, 3):
            if not is_residue_balanced(shifted_weight(lam), m, n):
                continue
            checked += 1
            cert = factorize(lam, m, n)
            ok = ok and cert.balanced and cert.epsilon in (1, -1)
            sym_ok, scalar = verify_symbolic(cert)
            ok = ok and sym_ok and scalar is not None
            ok = ok and verify_numeric(cert, samples=5)
    # spot values
    ok = ok and factorize((0, 0, 0, 0), 2, 2).epsilon == 1
    spot = factorize((1, 1, 0, 0), 2, 2)
    ok = ok and spot.etas == ((1, 0), (0, 0)) and spot.epsilon == -1
    assert checked > 0
    report(f"3 main factorization ({checked} balanced weights)", ok,
           time.perf_counter() - start, budget=300)


def test_criterion_3_numeric_factorization_past_size_nine():
    # the numeric half of verify at m*n = 10 and 12: every balanced weight
    # with entries in [0, 1], five sample points each
    start = time.perf_counter()
    ok = True
    checked = 0
    for m, n in ((3, 4), (4, 3), (2, 6), (1, 10)):
        for lam in dominant_weights(m * n, 0, 1):
            if not is_residue_balanced(shifted_weight(lam), m, n):
                continue
            checked += 1
            ok = ok and verify_numeric(factorize(lam, m, n), samples=5)
    assert checked > 0
    report(f"3 numeric factorization past m*n = 9 ({checked} balanced weights)",
           ok, time.perf_counter() - start, budget=5)


def test_criterion_3_symbolic_factorization_past_size_nine():
    # the symbolic half of verify at m*n = 10 and 12: the zero weight and
    # the first two balanced weights in [0, 3] that are not constant
    start = time.perf_counter()
    ok = True
    checked = 0
    for m, n in ((3, 4), (4, 3), (2, 6), (1, 10)):
        balanced = [lam for lam in sorted(dominant_weights(m * n, 0, 3))
                    if lam[0] != lam[-1] and is_residue_balanced(shifted_weight(lam), m, n)]
        for lam in [(0,) * (m * n)] + balanced[:2]:
            checked += 1
            sym_ok, scalar = verify_symbolic(factorize(lam, m, n), bound=m * n)
            ok = ok and sym_ok and scalar is not None
    assert checked == 12
    report(f"3 symbolic factorization past m*n = 9 ({checked} weights)",
           ok, time.perf_counter() - start, budget=5)


def test_criterion_3_symbolic_factorization_past_size_twelve():
    # the symbolic half of verify at m*n = 12 to 18, decided factor by
    # factor: the zero weight and the first two balanced weights in [0, 3]
    # that are not constant; (2, 8) and (1, 16) have many blocks of few rows
    start = time.perf_counter()
    ok = True
    checked = 0
    for m, n in ((4, 4), (3, 5), (5, 3), (6, 2), (2, 8), (1, 16), (3, 6)):
        balanced = [lam for lam in sorted(dominant_weights(m * n, 0, 3))
                    if lam[0] != lam[-1] and is_residue_balanced(shifted_weight(lam), m, n)]
        for lam in [(0,) * (m * n)] + balanced[:2]:
            checked += 1
            sym_ok, scalar = verify_symbolic(factorize(lam, m, n), bound=m * n)
            ok = ok and sym_ok and scalar is not None
    assert checked == 21
    report(f"3 symbolic factorization past m*n = 12 ({checked} weights)",
           ok, time.perf_counter() - start, budget=8)


def test_criterion_4_column_row_counts():
    start = time.perf_counter()
    ok = True
    for m, n, expected in ((2, 2, 16), (2, 3, 288), (3, 2, 288)):
        blocks = BlockStructure(m, n)
        members = {p for p in symmetric_group(m * n)
                   if is_column_row_product(p, blocks)}
        ok = ok and len(members) == expected
        ok = ok and expected == math.factorial(m) ** n * math.factorial(n) ** m
        ok = ok and members == column_row_products(blocks)
    report("4 column-row membership and counts", ok,
           time.perf_counter() - start, budget=10)


def test_criterion_5_coset_audit():
    from charfactor.factorize import coset_audit

    start = time.perf_counter()
    ok = True
    balanced = [lam for lam in dominant_weights(4, 0, 3)
                if is_residue_balanced(shifted_weight(lam), 2, 2)]
    assert len(balanced) >= 10
    for lam in balanced[:10]:
        rep = coset_audit(lam, 2, 2)
        ok = ok and rep.passed
    sampled = coset_audit((1, 1, 1, 0, 0, 0), 2, 3, outside_sample=50)
    ok = ok and sampled.passed and sampled.tested_outside == 50
    report("5 coset vanishing and constants", ok,
           time.perf_counter() - start, budget=120)


@pytest.mark.parametrize("m,n,digest", [(2, 5, "3c649c6c29941d5a"),
                                        (5, 2, "e287f554ee411ee6")])
def test_criterion_5_sampled_coset_audit_at_size_ten(capsys, m, n, digest):
    # the digest pins the report of the coset walk that listed every coset
    # and checked each constant over the whole row subgroup
    start = time.perf_counter()
    code = main(["coset-audit", "--m", str(m), "--n", str(n),
                 "--lambda", ",".join(["0"] * 10), "--outside-sample", "5",
                 "--bound", "10"])
    out = capsys.readouterr().out
    ok = code == 0 and hashlib.sha256(out.encode()).hexdigest().startswith(digest)
    report(f"5 sampled coset audit at ({m},{n})", ok,
           time.perf_counter() - start, budget=2)


def test_criterion_6_coxeter_range():
    start = time.perf_counter()
    ok = True
    checked = 0
    for size in range(2, 7):
        for lam in dominant_weights(size, 0, 4):
            checked += 1
            value = coxeter_value(lam)  # raises internally if out of range
            ok = ok and (value == 0 or value == 1 or value == -1)
    report(f"6 Coxeter-point range ({checked} weights)", ok,
           time.perf_counter() - start, budget=60)


def test_criterion_7_schur_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20240801)
    ok = True
    checked = 0
    for size in range(1, 6):
        for lam in dominant_weights(size, 0, 3):
            poly = schur_polynomial(lam)
            for _ in range(20):
                point = [x for x in rng.sample(range(2, 98), size)]
                checked += 1
                ok = ok and evaluate(poly, point) == schur_at_point(lam, point)
    report(f"7 tableau == Jacobi-Trudi ({checked} evaluations)", ok,
           time.perf_counter() - start, budget=60)


def test_criterion_8_bench_gate():
    start = time.perf_counter()
    ok = True
    lines = []
    for m, n, lam in ((2, 3, (1, 1, 1, 0, 0, 0)), (2, 4, (1,) * 4 + (0,) * 4)):
        rows, agreed = run_benchmark(factorize(lam, m, n), samples=3)
        ok = ok and agreed
        for row in rows:
            lines.append(
                f"  {row['m']},{row['n']},{row['lambda']},{row['method']},"
                f"{row['wall_ns_mean']},{row['wall_ns_min']},{row['checks_passed']}")
        direct = next(r for r in rows if r["method"] == "direct")
        factored = next(r for r in rows if r["method"] == "factored")
        speedup = direct["wall_ns_mean"] / max(factored["wall_ns_mean"], 1)
        lines.append(f"  speedup ({m},{n}): {speedup:.1f}x")
    print("bench timing table (m,n,lambda,method,wall_ns_mean,wall_ns_min,checks_passed):")
    for line in lines:
        print(line)
    report("8 bench exactness gate", ok, time.perf_counter() - start)
