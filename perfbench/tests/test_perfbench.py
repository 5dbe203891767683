"""Tests of the benchmark's own checks: the tracer self-check, the golden
output comparison, the zero-work rules, and the refusal to run without the
package."""

import importlib
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
if str(SRC) not in sys.path:
    sys.path.append(str(SRC))


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


run = _load("run")
tracer = sys.modules["tracer"]
workloads = sys.modules["workloads"]
fz = importlib.import_module("charfactor.factorize")


def test_tracer_self_check_passes_and_restores_bindings():
    cyclotomic = importlib.import_module("charfactor.cyclotomic")
    characters = importlib.import_module("charfactor.characters")
    mul, schur = cyclotomic.Cyclotomic.__mul__, fz.schur_at_point
    problems, _ = tracer.self_check()
    assert problems == []
    assert cyclotomic.Cyclotomic.__mul__ is mul
    assert fz.schur_at_point is schur is characters.schur_at_point


def test_self_check_reports_a_missed_binding(monkeypatch):
    install = tracer.Tracer.install

    def install_missing_one(self):
        install(self)
        # put one `from .characters import schur_at_point` binding back
        for i, (host, attr, original) in enumerate(self._patches):
            if host is fz and attr == "schur_at_point":
                setattr(host, attr, original)
                del self._patches[i]
                break

    monkeypatch.setattr(tracer.Tracer, "install", install_missing_one)
    problems, _ = tracer.self_check()
    assert any(p.startswith("characters.schur_at_point: traced") for p in problems)


def test_self_check_reports_a_miscounted_yield(monkeypatch):
    yield_wrapper = tracer.Tracer._yield_wrapper

    def yield_wrapper_counting_twice(self, fn, metric):
        wrapped = yield_wrapper(self, fn, metric)

        def wrapper(*args, **kwargs):
            for item in wrapped(*args, **kwargs):
                self.counts[f"{metric}.yielded"] += 1
                yield item
        return wrapper

    monkeypatch.setattr(tracer.Tracer, "_yield_wrapper", yield_wrapper_counting_twice)
    problems, _ = tracer.self_check()
    assert any(p.startswith("perms.row_coset_reps.yielded: traced") for p in problems)


def test_traced_counts_repeat_exactly():
    def counts():
        t = tracer.Tracer()
        with t.installed():
            tracer._self_check_workload()
        return {k: v for k, v in t.metrics().items() if not k.endswith("_ms")}

    assert counts() == counts()


def _sweep_ops():
    weights = importlib.import_module("charfactor.weights")
    return workloads.WORKLOADS["sweep"].ops(weights)[:3]


def test_golden_mismatch_fails_the_op():
    workload = workloads.WORKLOADS["sweep"]
    ops = _sweep_ops()
    golden = {}
    for op in ops:
        _, _, out, problem = run.run_op(workload, fz, op, 1, None)
        assert problem is None
        golden[op.key] = out
    assert not run.measure(workload, fz, ops, 1, golden).failures
    golden[ops[1].key] = "0" * 64
    result = run.measure(workload, fz, ops, 1, golden)
    assert result.failures == [f"{ops[1].key}: output differs from the golden output"]
    assert sorted(result.ratios) == sorted(op.key for op in ops if op is not ops[1])


def test_pooled_processes_that_disagree_fail_the_op():
    first = run.Run(attempted=2, rounds=1, ratios={"a": [2.0], "b": [3.0]},
                    hashes={"a": "1", "b": "2"}, setup_ratios=[10.0])
    second = run.Run(attempted=2, rounds=1, ratios={"a": [4.0], "b": [5.0]},
                     hashes={"a": "1", "b": "3"}, setup_ratios=[11.0])
    pooled = run.pool([first, second])
    assert pooled.attempted == 4 and pooled.rounds == 2
    assert pooled.ratios == {"a": [2.0, 4.0], "b": [3.0, 5.0]}
    assert pooled.setup_ratios == [10.0, 11.0]
    assert pooled.failures == ["b: output differs between processes"]


def test_recorded_golden_digest_matches_its_ops():
    golden = run.load_golden()
    assert sorted(golden) == sorted(workloads.WORKLOADS)
    for entry in golden.values():
        assert run.digest(entry["ops"]) == entry["digest"]


def test_op_that_ran_zero_checks_fails():
    sweep = workloads.WORKLOADS["sweep"]
    unchecked = workloads.Workload(
        name="unchecked", grid=sweep.grid, balanced_only=False, run=sweep.run,
        check=lambda op, result: (0, None), canonical=sweep.canonical)
    ops = _sweep_ops()
    result = run.measure(unchecked, fz, ops, 1, None)
    assert sorted(result.failures) == sorted(f"{op.key}: ran zero checks" for op in ops)
    assert result.ratios == {}


def test_audit_that_tested_no_vanishing_coset_fails():
    op = workloads.Op(2, 3, (1, 1, 1, 0, 0, 0))
    report = SimpleNamespace(tested_outside=0, tested_inside=36, passed=True, failures=[])
    checks, problem = workloads.check_audit(op, report)
    assert problem == "no vanishing coset was tested although some exist"
    real = fz.coset_audit(op.lam, op.m, op.n)
    assert workloads.check_audit(op, real) == (54 + 36, None)


def test_outside_coset_count_matches_enumeration():
    perms = importlib.import_module("charfactor.perms")
    for m, n in ((2, 2), (2, 3), (3, 2)):
        blocks = perms.BlockStructure(m, n)
        outside = sum(1 for rep in perms.row_coset_reps(m, n)
                      if not perms.is_column_row_product(rep, blocks))
        assert workloads.outside_cosets(m, n) == outside


def test_tail_is_the_eleventh_largest():
    value, pct = run.tail(list(range(1, 101)))
    assert value == 90 and pct == 90.0
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


def test_run_without_the_package_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "tests"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
