"""Span tracer for the charfactor benchmark.

`Tracer.installed()` wraps the public functions of every layer of the
package (cyclotomic, laurent, perms, weights, characters, factorize) and
rebinds each wrapped object everywhere the package holds it: on its class,
in its defining module, in every module that imported it with
`from .x import y`, and in the package namespace.  Modules are looked up
with `importlib.import_module`, because `charfactor.factorize` is the
re-exported function, not the module.

Each wrapped call records one span (name, start, end, parent) in flat
arrays kept in memory; aggregates are computed from the spans when the run
ends.  A layer's self time is its spans' duration minus the time their
child spans cover.  `cyclotomic.new` is counted without a span, and the
three subgroup enumerators count the elements they yield.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from math import factorial, lcm

# (module, class or None, attributes, metric name)
SPANS = (
    ("cyclotomic", "Cyclotomic", ("__mul__", "__rmul__"), "cyclotomic.mul"),
    ("cyclotomic", "Cyclotomic", ("__add__", "__radd__", "__sub__", "__neg__"),
     "cyclotomic.add"),
    ("cyclotomic", "Cyclotomic", ("inverse",), "cyclotomic.inverse"),
    ("cyclotomic", "Cyclotomic", ("embed",), "cyclotomic.embed"),
    ("laurent", "LaurentPoly", ("__mul__", "__rmul__"), "laurent.mul"),
    ("laurent", "LaurentPoly", ("__add__", "__radd__", "__sub__", "__neg__"),
     "laurent.add"),
    ("laurent", "LaurentPoly", ("scalar_ratio",), "laurent.scalar_ratio"),
    ("laurent", None, ("block_specialize",), "laurent.block_specialize"),
    ("perms", None, ("permutation_parity",), "perms.permutation_parity"),
    ("perms", None, ("is_column_row_product",), "perms.is_column_row_product"),
    ("perms", "Perm", ("__mul__", "act"), "perms.perm_ops"),
    ("weights", None, None, "weights"),
    ("characters", None, ("det_fraction_free",), "characters.det_fraction_free"),
    ("characters", None, ("schur_at_point",), "characters.schur_at_point"),
    ("characters", None, ("coxeter_value",), "characters.coxeter_value"),
    ("characters", None, ("twisted_numerator",), "characters.twisted_numerator"),
    ("characters", None, ("alternant",), "characters.alternant"),
    ("factorize", None, ("factorize",), "factorize.factorize"),
    ("factorize", None, ("coset_block_sum",), "factorize.coset_block_sum"),
    ("factorize", None, ("sign_via_coxeter",), "factorize.sign_via_coxeter"),
    ("factorize", None, ("verify_numeric",), "factorize.verify_numeric"),
    ("factorize", None, ("verify_symbolic",), "factorize.verify_symbolic"),
    ("factorize", None, ("vanishes_numerically",), "factorize.vanishes_numerically"),
    ("factorize", None, ("coset_audit",), "factorize.coset_audit"),
)
CALLS_ONLY = (("cyclotomic", "Cyclotomic", ("__init__",), "cyclotomic.new"),)
YIELDS = (
    ("perms", None, ("row_coset_reps",), "perms.row_coset_reps"),
    ("perms", None, ("row_subgroup",), "perms.row_subgroup"),
    ("perms", None, ("column_subgroup",), "perms.column_subgroup"),
)

# spans reported by calls and self time, and those reported inclusively
SELF_TIMED = (
    "cyclotomic.mul", "cyclotomic.add", "cyclotomic.inverse", "cyclotomic.embed",
    "laurent.mul", "laurent.add", "laurent.scalar_ratio", "laurent.block_specialize",
    "perms.permutation_parity", "perms.is_column_row_product", "perms.perm_ops",
    "weights",
    "characters.det_fraction_free", "characters.schur_at_point",
    "characters.coxeter_value", "characters.twisted_numerator", "characters.alternant",
    "factorize.factorize", "factorize.coset_block_sum",
)
INCLUSIVE = (
    "factorize.sign_via_coxeter", "factorize.verify_numeric",
    "factorize.verify_symbolic", "factorize.vanishes_numerically",
    "factorize.coset_audit",
)
OP = "op"


def _module(name):
    return importlib.import_module(f"charfactor.{name}")


def _public_functions(module):
    return tuple(name for name, value in vars(module).items()
                 if inspect.isfunction(value) and not name.startswith("_")
                 and value.__module__ == module.__name__)


def targets(table):
    """Yield (host, attribute, original object, metric) for a target table;
    the host is the class for methods and the module for functions."""
    for module_name, owner, attrs, metric in table:
        module = _module(module_name)
        host = module if owner is None else getattr(module, owner)
        for attr in attrs or _public_functions(module):
            yield host, attr, vars(host)[attr], metric


def metric_names():
    """Every per-layer metric the traced run reports, in report order."""
    names = []
    for metric in SELF_TIMED:
        names += [f"{metric}.calls", f"{metric}.self_ms"]
    names.append("cyclotomic.new.calls")
    names += [f"{metric}.incl_ms" for metric in INCLUSIVE]
    names += [
        "cyclotomic.mul.coeff_mults", "cyclotomic.mul.order_max",
        "characters.det_fraction_free.size_max",
        "characters.det_fraction_free.size_cubed_sum",
        "characters.twisted_numerator.perms", "laurent.mul.term_pairs",
        "perms.row_coset_reps.yielded", "perms.row_subgroup.yielded",
        "perms.column_subgroup.yielded", "factorize.sign_generic_fallback.count",
    ]
    return names


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.labels = {}
        self._stack = [-1]
        self.counts = Counter()
        self._patches = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording -------------------------------------------------------

    def _hooks(self):
        cyclotomic = _module("cyclotomic")
        laurent = _module("laurent")
        counts = self.counts

        def mul(args):
            a, b = args[0], args[1]
            if isinstance(b, cyclotomic.Cyclotomic):
                order = lcm(a.order, b.order)
                counts["cyclotomic.mul.coeff_mults"] += cyclotomic.field_degree(order) ** 2
            elif isinstance(b, (int, Fraction)):
                order = a.order
                counts["cyclotomic.mul.coeff_mults"] += len(a.coeffs)
            else:
                return
            if order > counts["cyclotomic.mul.order_max"]:
                counts["cyclotomic.mul.order_max"] = order

        def det(args):
            size = len(args[0])
            counts["characters.det_fraction_free.size_cubed_sum"] += size ** 3
            if size > counts["characters.det_fraction_free.size_max"]:
                counts["characters.det_fraction_free.size_max"] = size

        def numerator(args):
            counts["characters.twisted_numerator.perms"] += factorial(len(args[0]))

        def poly_mul(args):
            a, b = args[0], args[1]
            other = len(b.terms) if isinstance(b, laurent.LaurentPoly) else 1
            counts["laurent.mul.term_pairs"] += len(a.terms) * other

        return {"cyclotomic.mul": mul, "characters.det_fraction_free": det,
                "characters.twisted_numerator": numerator, "laurent.mul": poly_mul}

    def _span_wrapper(self, fn, metric, hook):
        name_id = self._id(metric)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            if hook is not None:
                hook(args)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
        return wrapper

    def _calls_wrapper(self, fn, metric):
        counts = self.counts
        key = f"{metric}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _yield_wrapper(self, fn, metric):
        counts = self.counts
        key = f"{metric}.yielded"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item
        return wrapper

    @contextmanager
    def span(self, label):
        """Record one op-level span around the benchmark's own call."""
        idx = len(self.span_name)
        self.span_name.append(self._id(OP))
        self.span_parent.append(self._stack[-1])
        self.labels[idx] = label
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(0)
        self._stack.append(idx)
        try:
            yield
        finally:
            self.span_end[idx] = time.perf_counter_ns()
            self._stack.pop()

    # -- patching --------------------------------------------------------

    def _wrappers(self):
        hooks = self._hooks()
        wrappers = []
        for host, attr, fn, metric in targets(SPANS):
            wrappers.append((host, attr, fn, self._span_wrapper(fn, metric, hooks.get(metric))))
        for host, attr, fn, metric in targets(CALLS_ONLY):
            wrappers.append((host, attr, fn, self._calls_wrapper(fn, metric)))
        for host, attr, fn, metric in targets(YIELDS):
            wrappers.append((host, attr, fn, self._yield_wrapper(fn, metric)))
        return wrappers

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        replacement = {}
        for host, attr, fn, wrapper in self._wrappers():
            if inspect.isclass(host):
                self._patches.append((host, attr, fn))
                setattr(host, attr, wrapper)
            else:
                replacement[fn] = wrapper
        for name, module in list(sys.modules.items()):
            if name != "charfactor" and not name.startswith("charfactor."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacement:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement[value])

    def uninstall(self):
        while self._patches:
            host, attr, original = self._patches.pop()
            setattr(host, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- aggregation -----------------------------------------------------

    def aggregate(self):
        """Per span name: calls, total duration, self time and outermost
        (inclusive) duration in ns; plus the generic-fallback count."""
        size = len(self.names)
        calls = [0] * size
        total = [0] * size
        covered = [0] * size
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(len(names)):
            d = ends[i] - starts[i]
            nid = names[i]
            calls[nid] += 1
            total[nid] += d
            p = parents[i]
            if p >= 0:
                covered[names[p]] += d
        inclusive = [0] * size
        incl_ids = {self._ids[n] for n in INCLUSIVE if n in self._ids}
        for i in range(len(names)):
            nid = names[i]
            if nid in incl_ids and not self._has_ancestor(i, nid):
                inclusive[nid] += ends[i] - starts[i]
        out = {name: {"calls": calls[i], "total_ns": total[i],
                      "self_ns": total[i] - covered[i], "incl_ns": inclusive[i]}
               for i, name in enumerate(self.names)}
        return out, self._fallbacks()

    def _has_ancestor(self, i, nid):
        p = self.span_parent[i]
        while p >= 0:
            if self.span_name[p] == nid:
                return True
            p = self.span_parent[p]
        return False

    def _fallbacks(self):
        # sign_via_coxeter spans with a schur_at_point child took the
        # generic-point path
        sign = self._ids.get("factorize.sign_via_coxeter")
        schur = self._ids.get("characters.schur_at_point")
        parents = {self.span_parent[i] for i in range(len(self.span_name))
                   if self.span_name[i] == schur and self.span_parent[i] >= 0}
        return sum(1 for p in parents if self.span_name[p] == sign)

    def metrics(self, aggregated=None):
        """Every per-layer metric of `metric_names()` as a number, from
        `aggregate()` or its given result."""
        spans, fallbacks = aggregated or self.aggregate()
        empty = {"calls": 0, "self_ns": 0, "incl_ns": 0}
        out = {}
        for metric in SELF_TIMED:
            agg = spans.get(metric, empty)
            out[f"{metric}.calls"] = agg["calls"]
            out[f"{metric}.self_ms"] = agg["self_ns"] / 1e6
        out["cyclotomic.new.calls"] = self.counts["cyclotomic.new.calls"]
        for metric in INCLUSIVE:
            out[f"{metric}.incl_ms"] = spans.get(metric, empty)["incl_ns"] / 1e6
        for name in metric_names():
            if name not in out:
                out[name] = self.counts[name]
        out["factorize.sign_generic_fallback.count"] = fallbacks
        return out

    def write_spans(self, path):
        """Write the op spans and the factorize and characters spans under
        them as JSON lines, each with its nearest written ancestor; the hot
        arithmetic spans are summarized by `metrics` only."""
        keep = {self._ids[n] for n in self._ids
                if n == OP or n.startswith(("factorize.", "characters."))}
        written = {}
        with open(path, "w") as handle:
            for i in range(len(self.span_name)):
                if self.span_name[i] not in keep:
                    continue
                p = self.span_parent[i]
                while p >= 0 and p not in written:
                    p = self.span_parent[p]
                written[i] = len(written)
                record = {"id": written[i], "parent": written.get(p),
                          "name": self.names[self.span_name[i]],
                          "start_ns": self.span_start[i], "end_ns": self.span_end[i]}
                if i in self.labels:
                    record["op"] = self.labels[i]
                handle.write(json.dumps(record) + "\n")
        return len(written)


# -- self-check ------------------------------------------------------------

SELF_CHECK_M, SELF_CHECK_N = 2, 2
# (1,1,0,0) is zero at the Coxeter point, so its sign takes the generic
# fallback; (2,1,1,0) is pinned at the Coxeter point; (1,0,0,0) is unbalanced
SELF_CHECK_FALLBACK = (1, 1, 0, 0)
SELF_CHECK_COXETER = (2, 1, 1, 0)
SELF_CHECK_VANISHING = (1, 0, 0, 0)


def _self_check_workload():
    fz = _module("factorize")
    m, n = SELF_CHECK_M, SELF_CHECK_N
    for lam in (SELF_CHECK_FALLBACK, SELF_CHECK_COXETER):
        cert = fz.factorize(lam, m, n)
        fz.verify_numeric(cert, samples=1)
        fz.verify_symbolic(cert)
    fz.vanishes_numerically(SELF_CHECK_VANISHING, m, n, samples=1)
    fz.coset_audit(SELF_CHECK_COXETER, m, n)


def self_check():
    """Run a tiny fixed instance under the tracer while an independent
    `sys.setprofile` hook counts the executions of every wrapped function's
    own code and the items every wrapped generator yields; return
    (problems, unfired).  `problems` is empty when the tracer is sound.

    Checks that span, call and yield counts equal the profiled counts (an
    unpatched binding shows as a shortfall) and that uninstalling restores
    every binding.  `unfired` names the wrapped targets the instance never
    reached; that is a fact about the package's call graph, not a tracer
    fault, so it is reported but does not fail the check.
    """
    code_metric = {}
    for table in (SPANS, CALLS_ONLY):
        for host, attr, fn, metric in targets(table):
            code_metric[fn.__code__] = metric
    generator_metric = {fn.__code__: f"{metric}.yielded"
                        for host, attr, fn, metric in targets(YIELDS)}
    generator_frames = {}
    profiled = Counter()

    def profile(frame, event, arg):
        # A generator frame reports "return" at each yield, with the item,
        # and once more with None when it finishes or is closed.  A wrapped
        # enumerator is either a generator function, whose own frame yields,
        # or a function returning a generator, whose frame is then followed.
        code = frame.f_code
        if event == "call":
            metric = code_metric.get(code)
            if metric is not None:
                profiled[metric] += 1
            elif code in generator_metric and code.co_flags & inspect.CO_GENERATOR:
                generator_frames[frame] = generator_metric[code]
        elif event == "return" and arg is not None:
            if frame in generator_frames:
                profiled[generator_frames[frame]] += 1
            elif code in generator_metric and inspect.isgenerator(arg):
                generator_frames[arg.gi_frame] = generator_metric[code]

    before = {(id(h), a): vars(h)[a] for h, a, _, _ in targets(SPANS + CALLS_ONLY + YIELDS)}
    tracer = Tracer()
    previous = sys.getprofile()
    with tracer.installed():
        sys.setprofile(profile)
        try:
            _self_check_workload()
        finally:
            sys.setprofile(previous)
    problems = []
    if any(vars(h)[a] is not before[(id(h), a)]
           for h, a, _, _ in targets(SPANS + CALLS_ONLY + YIELDS)):
        problems.append("uninstall left a wrapped binding in place")

    spans, _ = tracer.aggregate()
    traced = Counter({name: agg["calls"] for name, agg in spans.items()})
    traced["cyclotomic.new"] = tracer.counts["cyclotomic.new.calls"]
    for key in generator_metric.values():
        traced[key] = tracer.counts[key]
    unfired = []
    for metric in sorted(set(code_metric.values()) | set(generator_metric.values())):
        if traced[metric] != profiled[metric]:
            problems.append(f"{metric}: traced {traced[metric]}, profiled {profiled[metric]}")
        elif traced[metric] == 0:
            unfired.append(metric)
    return problems, unfired
