"""Command line frontend: certificates, identity checks, coset audits,
batch sweeps, and a micro benchmark of direct versus factored evaluation.

Exit codes: 0 all checks pass, 1 input error or failed check, 2 instance
too large for exact enumeration, 3 vanishing certificate (a valid answer).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from statistics import mean

from .perms import (DEFAULT_ENUMERATION_BOUND, EnumerationTooLarge,
                    check_enumeration_bound)
from .characters import (schur_at_point, coxeter_value, multiply_out,
                         twisted_numerator, twisted_numerator_terms,
                         twisted_vandermonde_closed)
from .weights import dominant_weights, staircase
from .factorize import (DEFAULT_SEED, coset_audit, factored_value, factorize,
                        sample_points, verify_numeric, verify_terms)

EXIT_PASS = 0
EXIT_INPUT = 1
EXIT_BOUND = 2
EXIT_VANISHING = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for the
    # enumeration bound here, so remap usage problems to the input code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _parse_weight(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"malformed weight list: {text!r}")


def _resolve_bound(args):
    if args.bound is not None:
        return args.bound
    env = os.environ.get("CHARFACTOR_BOUND")
    if not env:
        return DEFAULT_ENUMERATION_BOUND
    try:
        bound = int(env)
    except ValueError:
        raise ValueError(f"CHARFACTOR_BOUND is not an integer: {env!r}")
    if bound < 1:
        raise ValueError(f"CHARFACTOR_BOUND must be at least 1: {env!r}")
    return bound


def _write(args, text):
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_factor(args):
    lam = _parse_weight(args.lam)
    cert = factorize(lam, args.m, args.n)
    _write(args, json.dumps(cert.to_dict(), indent=2))
    return EXIT_PASS if cert.balanced else EXIT_VANISHING


def cmd_verify(args):
    lam = _parse_weight(args.lam)
    bound = _resolve_bound(args)
    cert = factorize(lam, args.m, args.n)
    check_enumeration_bound(args.m * args.n, bound)
    if not cert.balanced:
        ok = verify_numeric(cert, samples=args.samples, seed=args.seed)
        if args.emit == "poly":
            # an unbalanced weight's twisted numerator is zero
            _write(args, f"numerator: 0\nvanishing: {'pass' if ok else 'fail'}")
        else:
            report = {
                "certificate": cert.to_dict(),
                "checks": [{"check": "vanishing-at-samples",
                            "samples": args.samples, "pass": ok}],
            }
            _write(args, json.dumps(report, indent=2))
        return EXIT_VANISHING if ok else EXIT_INPUT
    terms = twisted_numerator_terms(cert.mu, args.m, args.n, bound=bound)
    sym_ok, scalar = verify_terms(cert, terms)
    num_ok = verify_numeric(cert, samples=args.samples, seed=args.seed)
    if args.emit == "poly":
        lines = [
            f"numerator: {multiply_out(terms, args.m)}",
            f"scalar: {scalar}" if scalar is not None else "scalar: none",
            f"symbolic: {'pass' if sym_ok else 'fail'}",
            f"numeric: {'pass' if num_ok else 'fail'}",
        ]
        _write(args, "\n".join(lines))
    else:
        report = {
            "certificate": cert.to_dict(),
            "checks": [
                {"check": "symbolic-scalar", "pass": sym_ok,
                 "scalar": str(scalar) if scalar is not None else None},
                {"check": "numeric-samples", "samples": args.samples, "pass": num_ok},
            ],
        }
        _write(args, json.dumps(report, indent=2))
    return EXIT_PASS if sym_ok and num_ok else EXIT_INPUT


def cmd_denom_check(args):
    # the direct side is the twisted numerator of the staircase, which is
    # the Vandermonde prod_(a<b) (x_a - x_b), so it costs what any numerator
    # costs; the bound is checked before the staircase of m*n entries is built
    bound = _resolve_bound(args)
    check_enumeration_bound(args.m * args.n, bound)
    direct = twisted_numerator(staircase(args.m * args.n), args.m, args.n, bound=bound)
    closed = twisted_vandermonde_closed(args.m, args.n)
    match = direct == closed
    if args.emit == "poly":
        _write(args, f"direct: {direct}\nclosed: {closed}\nmatch: {match}")
    else:
        _write(args, json.dumps({"m": args.m, "n": args.n, "match": match}, indent=2))
    return EXIT_PASS if match else EXIT_INPUT


def audit_json(report):
    """json.dumps(report.to_dict(), indent=2), the constants spliced in from
    one template: `indent` makes `json` use its pure-Python encoder."""
    entry = '    {\n      "perm": [\n        %s\n      ],\n      "omega_power": %d\n    }'
    data = report.to_dict()
    entries = ",\n".join(entry % (",\n        ".join(map(str, c["perm"])), c["omega_power"])
                         for c in data["constants"])
    text = json.dumps(dict(data, constants=[]), indent=2)
    return text.replace('"constants": []', f'"constants": [\n{entries}\n  ]') if entries else text


def cmd_coset_audit(args):
    lam = _parse_weight(args.lam)
    report = coset_audit(lam, args.m, args.n,
                         outside_sample=args.outside_sample,
                         seed=args.seed, bound=_resolve_bound(args))
    _write(args, audit_json(report))
    return EXIT_PASS if report.passed else EXIT_INPUT


def cmd_coxeter(args):
    lam = _parse_weight(args.lam)
    payload = {"lambda": list(lam), "order": len(lam), "value": coxeter_value(lam)}
    _write(args, json.dumps(payload, indent=2))
    return EXIT_PASS


def run_benchmark(cert, samples=3, seed=DEFAULT_SEED):
    """Time direct evaluation (`schur_at_point` at t.c_n) against factored
    evaluation of a balanced certificate from `factorize` on shared t;
    returns (csv rows, all results identical)."""
    if not cert.balanced:
        raise ValueError("benchmark needs a balanced weight")
    m, n = cert.m, cert.n
    points = list(sample_points(m, samples, seed))
    direct_ns = []
    factored_ns = []
    checks = 0
    for t in points:
        start = time.perf_counter_ns()
        direct = schur_at_point(cert.lam, t, n)
        direct_ns.append(time.perf_counter_ns() - start)
        start = time.perf_counter_ns()
        factored = factored_value(cert, t)
        factored_ns.append(time.perf_counter_ns() - start)
        if direct == factored:
            checks += 1
    lam_text = " ".join(str(x) for x in cert.lam)
    rows = [
        {"m": m, "n": n, "lambda": lam_text, "method": "direct",
         "wall_ns_mean": int(mean(direct_ns)), "wall_ns_min": min(direct_ns),
         "checks_passed": checks},
        {"m": m, "n": n, "lambda": lam_text, "method": "factored",
         "wall_ns_mean": int(mean(factored_ns)), "wall_ns_min": min(factored_ns),
         "checks_passed": checks},
    ]
    return rows, checks == len(points)


def _rows_to_csv(rows):
    # the columns are the keys of the first row, in order; rows is never empty
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def cmd_bench(args):
    cert = factorize(_parse_weight(args.lam), args.m, args.n)
    if not cert.balanced:
        _write(args, json.dumps(cert.to_dict(), indent=2))
        return EXIT_VANISHING
    rows, ok = run_benchmark(cert, samples=args.samples, seed=args.seed)
    if args.emit == "json":
        _write(args, json.dumps(rows, indent=2))
    else:
        _write(args, _rows_to_csv(rows))
    return EXIT_PASS if ok else EXIT_INPUT


def _sweep_one(packed):
    lam, m, n, samples, seed = packed
    cert = factorize(lam, m, n)
    return {"lambda": list(lam), "balanced": cert.balanced, "epsilon": cert.epsilon,
            "check_passed": verify_numeric(cert, samples=samples, seed=seed)}


def cmd_sweep(args):
    if args.low > args.high:
        raise ValueError("--min must not exceed --max")
    lams = sorted(dominant_weights(args.m * args.n, args.low, args.high))
    packed = [(lam, args.m, args.n, args.samples, args.seed) for lam in lams]
    # a fork pool starts every worker at once, so never more than there
    # are weights or CPUs; one weight costs less than a task's round trip,
    # so each task carries a quarter of a worker's share, rounded up
    jobs = min(args.jobs, len(packed), os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_one, packed, chunksize=-(-len(packed) // (4 * jobs))))
    else:
        rows = [_sweep_one(p) for p in packed]
    summary = {
        "total": len(rows),
        "balanced": sum(r["balanced"] for r in rows),
        "vanishing": sum(not r["balanced"] for r in rows),
        "failed": sum(not r["check_passed"] for r in rows),
    }
    if args.emit == "csv":
        flat = [dict(r, **{"lambda": " ".join(str(x) for x in r["lambda"])})
                for r in rows]
        _write(args, _rows_to_csv(flat))
    else:
        _write(args, json.dumps({"summary": summary, "rows": rows}, indent=2))
    return EXIT_PASS if summary["failed"] == 0 else EXIT_INPUT


def build_parser():
    parser = _Parser(prog="charfactor",
                     description="Exact factorization of twisted-point "
                                 "character values, with verifiers and a benchmark.")
    common = _Parser(add_help=False)
    common.add_argument("--output", default=None,
                        help="write the report to this path instead of stdout")
    common.add_argument("--emit", choices=["json", "poly", "csv"], default=None,
                        help="output format (per-command default)")
    common.add_argument("--bound", type=int, default=None,
                        help=f"enumeration bound on m*n (default "
                             f"{DEFAULT_ENUMERATION_BOUND}; env CHARFACTOR_BOUND)")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for sample-point drawing")

    sub = parser.add_subparsers(dest="command", required=True)

    # emits: the --emit formats the command accepts, its default first
    def add(name, func, help_, emits=("json",), weight=True, mn=True, samples=False):
        p = sub.add_parser(name, parents=[common], help=help_)
        if mn:
            p.add_argument("--m", type=int, required=True)
            p.add_argument("--n", type=int, required=True)
        if weight:
            p.add_argument("--lambda", dest="lam", required=True,
                           help="comma-separated weakly decreasing integers "
                                "(--lambda=-1,-1,-2,-2 when the first is negative)")
        if samples:
            p.add_argument("--samples", type=int, default=5)
        p.set_defaults(func=func, emits=emits)
        return p

    add("factor", cmd_factor, "emit the factorization certificate")
    add("verify", cmd_verify, "check a certificate symbolically and numerically",
        emits=("json", "poly"), samples=True)
    add("denom-check", cmd_denom_check,
        "compare the direct and factored twisted Vandermonde",
        emits=("json", "poly"), weight=False)
    audit = add("coset-audit", cmd_coset_audit,
                "audit vanishing cosets and column constants")
    audit.add_argument("--outside-sample", type=int, default=None,
                       help="sample this many vanishing cosets instead of all")
    add("coxeter", cmd_coxeter, "character value at the primitive-root point", mn=False)
    add("bench", cmd_bench, "time direct vs factored evaluation",
        emits=("csv", "json"), samples=True)
    sweep = add("sweep", cmd_sweep, "factorize and verify every dominant weight in a range",
                emits=("json", "csv"), weight=False, samples=True)
    sweep.add_argument("--min", dest="low", type=int, required=True)
    sweep.add_argument("--max", dest="high", type=int, required=True)
    sweep.add_argument("--jobs", type=int, default=1)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        # a count below 1 checks nothing, or for --m, --n, --jobs and --bound means nothing
        for flag in ("m", "n", "samples", "jobs", "outside_sample", "bound"):
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise ValueError(f"--{flag.replace('_', '-')} must be at least 1")
        # the report is written after the work, so check its path first
        if args.output:
            if not os.path.isdir(os.path.dirname(os.path.abspath(args.output))):
                raise ValueError(f"--output directory does not exist: {args.output}")
            if os.path.isdir(args.output):
                raise ValueError(f"--output is a directory: {args.output}")
        args.emit = args.emit or args.emits[0]
        if args.emit not in args.emits:
            accepted = " or ".join(args.emits) if args.emits[1:] else f"{args.emits[0]} only"
            raise ValueError(f"{args.command} supports --emit {accepted}")
        return args.func(args)
    except EnumerationTooLarge as exc:
        print(f"error: instance too large for exact enumeration ({exc})",
              file=sys.stderr)
        return EXIT_BOUND
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
