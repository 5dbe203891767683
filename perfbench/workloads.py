"""The four workloads of the charfactor benchmark.

Each workload is a fixed grid of (m, n, lambda) instances.  One op runs one
instance the way the matching CLI command does, through the public
functions of `charfactor.factorize`.  The op's own exactness check must
pass before its time counts; an op whose check ran zero times fails.

The functions here take the live `charfactor.factorize` module as an
argument instead of importing names from it, so that a tracer patching the
module's bindings sees every call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import factorial
from typing import Callable

# Numeric spot checks per balanced sweep op (as `charfactor sweep --samples 3`)
# and per certify op.  Each is the op's check count, and an op that ran zero
# checks fails, so both must stay positive.
SWEEP_SAMPLES = 3
CERTIFY_SAMPLES = 1

DEFAULT_SECONDS = 30


@dataclass(frozen=True)
class Op:
    m: int
    n: int
    lam: tuple

    @property
    def key(self):
        return f"{self.m}x{self.n}:{','.join(str(x) for x in self.lam)}"


@dataclass(frozen=True)
class Workload:
    name: str
    # ((m, n), lo, hi): every dominant weight with entries in [lo, hi],
    # balanced ones only when balanced_only is set
    grid: tuple
    balanced_only: bool
    run: Callable
    check: Callable
    canonical: Callable

    def ops(self, weights):
        """The instance grid, in grid order, built with the live
        `charfactor.weights` module."""
        out = []
        for (m, n), lo, hi in self.grid:
            for lam in sorted(weights.dominant_weights(m * n, lo, hi)):
                if self.balanced_only and not weights.is_residue_balanced(
                        weights.shifted_weight(lam), m, n):
                    continue
                out.append(Op(m, n, tuple(lam)))
        return out


def certificate_json(cert):
    """The certificate exactly as `charfactor factor` prints it."""
    return json.dumps(cert.to_dict(), indent=2)


def _spot_check(ok, samples):
    return samples, None if ok else "numeric spot check failed"


def run_sweep(fz, op, seed):
    cert = fz.factorize(op.lam, op.m, op.n)
    if cert.balanced:
        ok = fz.verify_numeric(cert, samples=SWEEP_SAMPLES, seed=seed)
    else:
        ok = fz.vanishes_numerically(op.lam, op.m, op.n, samples=SWEEP_SAMPLES, seed=seed)
    return cert, ok, SWEEP_SAMPLES


def run_certify(fz, op, seed):
    cert = fz.factorize(op.lam, op.m, op.n)
    return cert, fz.verify_numeric(cert, samples=CERTIFY_SAMPLES, seed=seed), CERTIFY_SAMPLES


def check_numeric(op, result):
    cert, ok, samples = result
    return _spot_check(ok, samples)


def check_certify(op, result):
    cert, ok, samples = result
    if not cert.balanced:
        return 0, "grid weight is not balanced"
    return _spot_check(ok, samples)


def canonical_numeric(result):
    return certificate_json(result[0])


def run_symbolic(fz, op, seed):
    cert = fz.factorize(op.lam, op.m, op.n)
    ok, scalar = fz.verify_symbolic(cert)
    return cert, ok, scalar


def check_symbolic(op, result):
    cert, ok, scalar = result
    if scalar is None:
        return 1, "numerator is not a scalar multiple of the factored side"
    return 1, None if ok else "symbolic scalar does not reproduce epsilon"


def canonical_symbolic(result):
    cert, ok, scalar = result
    return certificate_json(cert) + "\nscalar: " + str(scalar)


def run_audit(fz, op, seed):
    return fz.coset_audit(op.lam, op.m, op.n, seed=seed)


def outside_cosets(m, n):
    """Left cosets of the row subgroup with no column-row representative:
    all (mn)!/(m!)^n cosets minus the (n!)^m whose row blocks each take one
    position from every column."""
    return factorial(m * n) // factorial(m) ** n - factorial(n) ** m


def check_audit(op, report):
    checks = report.tested_outside + report.tested_inside
    expected = outside_cosets(op.m, op.n)
    if expected and report.tested_outside == 0:
        return checks, "no vanishing coset was tested although some exist"
    if report.tested_outside != expected:
        return checks, f"tested {report.tested_outside} vanishing cosets, expected {expected}"
    if report.tested_inside != factorial(op.n) ** op.m:
        return checks, (f"tested {report.tested_inside} column constants, "
                        f"expected {factorial(op.n) ** op.m}")
    if not report.passed:
        return checks, "; ".join(report.failures)
    return checks, None


def canonical_audit(report):
    return json.dumps(report.to_dict(), indent=2)


# Why each workload was chosen, and which layer it stresses, is recorded
# with its name in BENCHMARK.json.  Each grid is sized so that one round over
# its ops takes about 1.3-2.1 s on a 2-vCPU x86-64 VM at the baseline
# commit: a run of DEFAULT_SECONDS then times every op more than ten times,
# spread over the run's processes, and the median of its times is steady.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep",
        grid=(((2, 2), 0, 3), ((2, 3), 0, 2), ((3, 2), 0, 2)),
        balanced_only=False,
        run=run_sweep, check=check_numeric, canonical=canonical_numeric),
    Workload(
        name="certify",
        grid=(((2, 4), 0, 2), ((4, 2), 0, 2)),
        balanced_only=True,
        run=run_certify, check=check_certify, canonical=canonical_numeric),
    Workload(
        name="symbolic",
        grid=(((2, 3), 0, 2), ((3, 2), 0, 2), ((2, 4), 0, 1), ((4, 2), 0, 1)),
        balanced_only=True,
        run=run_symbolic, check=check_symbolic, canonical=canonical_symbolic),
    Workload(
        name="audit",
        grid=(((2, 2), 0, 3), ((2, 3), 0, 2), ((3, 2), 0, 2)),
        balanced_only=True,
        run=run_audit, check=check_audit, canonical=canonical_audit),
)}
