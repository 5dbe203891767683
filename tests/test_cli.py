import csv
import dataclasses
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from math import ceil

import pytest

import charfactor
from charfactor import characters, cli
from charfactor.cli import main, run_benchmark
from charfactor.characters import (twisted_numerator, twisted_numerator_terms,
                                   twisted_vandermonde_closed)
from charfactor.factorize import (CosetAuditReport, FactorizationCertificate,
                                  coset_audit, factorize, verify_numeric)
from oracles import twisted_vandermonde_product


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestFactorCommand:
    def test_balanced_certificate(self, capsys):
        code, out = run_cli(capsys, "factor", "--m", "2", "--n", "2",
                            "--lambda", "1,1,0,0")
        assert code == 0
        data = json.loads(out)
        assert data == {"m": 2, "n": 2, "lambda": [1, 1, 0, 0],
                        "balanced": True, "mu": [4, 0, 3, 1], "w0_sign": 1,
                        "etas": [[1, 0], [0, 0]], "epsilon": -1}

    def test_trivial_weight(self, capsys):
        code, out = run_cli(capsys, "factor", "--m", "2", "--n", "2",
                            "--lambda", "0,0,0,0")
        assert code == 0
        data = json.loads(out)
        assert data["etas"] == [[0, 0], [0, 0]]
        assert data["epsilon"] == 1

    def test_vanishing_exit_code(self, capsys):
        code, out = run_cli(capsys, "factor", "--m", "2", "--n", "2",
                            "--lambda", "1,0,0,0")
        assert code == 3
        assert json.loads(out)["balanced"] is False

    def test_malformed_weight(self, capsys):
        code, _ = run_cli(capsys, "factor", "--m", "2", "--n", "2",
                          "--lambda", "1,x,0,0")
        assert code == 1

    def test_non_dominant_weight(self, capsys):
        code, _ = run_cli(capsys, "factor", "--m", "2", "--n", "2",
                          "--lambda", "0,1,0,0")
        assert code == 1

    def test_wrong_length(self, capsys):
        code, _ = run_cli(capsys, "factor", "--m", "2", "--n", "2",
                          "--lambda", "1,0,0")
        assert code == 1

    def test_json_round_trip_reverifies(self, capsys):
        code, out = run_cli(capsys, "factor", "--m", "2", "--n", "2",
                            "--lambda", "2,1,1,0")
        assert code == 0
        data = json.loads(out)
        cert = FactorizationCertificate(
            m=data["m"], n=data["n"], lam=tuple(data["lambda"]), mu=tuple(data["mu"]),
            w0_sign=data["w0_sign"], etas=tuple(map(tuple, data["etas"])),
            epsilon=data["epsilon"])
        assert cert == factorize((2, 1, 1, 0), 2, 2)
        assert verify_numeric(cert, samples=3)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        code = main(["factor", "--m", "2", "--n", "2", "--lambda", "0,0,0,0",
                     "--output", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["balanced"] is True

    def test_output_under_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x"
        code = main(["factor", "--m", "2", "--n", "2", "--lambda", "0,0,0,0",
                     "--output", str(target)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not target.exists()

    def test_missing_output_directory_rejected_before_work(self, capsys, monkeypatch,
                                                           tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before --output was checked")

        monkeypatch.setattr(cli, "factorize", refuse)
        target = tmp_path / "missing" / "x"
        code = main(["verify", "--m", "3", "--n", "3", "--lambda", ",".join("0" * 9),
                     "--samples", "1", "--output", str(target)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: --output directory does not exist: {target}\n"
        assert not target.exists()

    @pytest.mark.parametrize("argv", [
        ("denom-check", "--m", "2", "--n", "2"),
        ("factor", "--m", "2", "--n", "2", "--lambda", "0,0,0,0"),
    ])
    def test_directory_output_rejected_before_work(self, capsys, monkeypatch, tmp_path,
                                                   argv):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before --output was checked")

        monkeypatch.setattr(cli, "factorize", refuse)
        monkeypatch.setattr(characters, "multiply_out", refuse)
        monkeypatch.setattr(cli, "twisted_vandermonde_closed", refuse)
        code = main([*argv, "--output", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: --output is a directory: {tmp_path}\n"


class TestEmitValidation:
    @pytest.mark.parametrize("argv,work", [
        (("factor", "--m", "2", "--n", "2", "--lambda", "1,1,0,0"), "factorize"),
        (("coset-audit", "--m", "2", "--n", "2", "--lambda", "2,1,1,0"),
         "coset_audit"),
        (("coxeter", "--lambda", "1,0,0,0"), "coxeter_value"),
    ])
    def test_bad_emit_rejected_before_work(self, capsys, monkeypatch, argv, work):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{work} ran before --emit was checked")

        monkeypatch.setattr(cli, work, refuse)
        code, out = run_cli(capsys, *argv, "--emit", "poly")
        assert code == 1
        assert out == ""

    @pytest.mark.parametrize("command,emit,accepted", [
        ("factor", "poly", "json only"), ("verify", "csv", "json or poly"),
        ("denom-check", "csv", "json or poly"), ("coset-audit", "csv", "json only"),
        ("coxeter", "poly", "json only"), ("bench", "poly", "csv or json"),
        ("sweep", "poly", "json or csv"),
    ])
    def test_rejection_names_the_accepted_formats(self, capsys, command, emit, accepted):
        argv = {"coxeter": ("--lambda", "1,0"), "denom-check": ("--m", "2", "--n", "2"),
                "sweep": ("--m", "2", "--n", "2", "--min", "0", "--max", "1")}.get(
            command, ("--m", "2", "--n", "2", "--lambda", "1,1,0,0"))
        code = main([command, *argv, "--emit", emit])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"error: {command} supports --emit {accepted}\n"


class TestCountValidation:
    @pytest.mark.parametrize("argv", [
        ("verify", "--m", "2", "--n", "2", "--lambda", "1,1,0,0", "--samples", "0"),
        ("bench", "--m", "2", "--n", "2", "--lambda", "1,1,0,0", "--samples", "0"),
        ("sweep", "--m", "2", "--n", "2", "--min", "0", "--max", "1",
         "--samples", "0"),
        ("sweep", "--m", "2", "--n", "2", "--min", "0", "--max", "1", "--jobs", "0"),
        ("sweep", "--m", "2", "--n", "2", "--min", "0", "--max", "1", "--jobs", "-1"),
        ("coset-audit", "--m", "2", "--n", "2", "--lambda", "2,1,1,0",
         "--outside-sample", "0"),
        ("coset-audit", "--m", "2", "--n", "2", "--lambda", "2,1,1,0",
         "--outside-sample", "-1"),
        ("denom-check", "--n", "3", "--m", "0"),
        ("denom-check", "--n", "2", "--m", "-1"),
        ("denom-check", "--m", "2", "--n", "0"),
        ("coset-audit", "--lambda", "0,0", "--n", "-2", "--m", "-1"),
        ("factor", "--m", "2", "--lambda", "0,0", "--n", "0"),
        ("sweep", "--n", "2", "--min", "0", "--max", "1", "--m", "0"),
        ("verify", "--m", "2", "--n", "2", "--lambda", "1,0,0,0", "--bound", "-1"),
        ("coset-audit", "--m", "2", "--n", "2", "--lambda", "2,1,1,0", "--bound", "0"),
        ("denom-check", "--m", "2", "--n", "2", "--bound", "0"),
    ])
    def test_counts_below_one_rejected(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the counts were checked")

        monkeypatch.setattr(cli, "factorize", refuse)
        monkeypatch.setattr(cli, "coset_audit", refuse)
        monkeypatch.setattr(characters, "multiply_out", refuse)
        monkeypatch.setattr(cli, "twisted_vandermonde_closed", refuse)
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: --{argv[-2][2:]} must be at least 1\n"


class TestVerifyCommand:
    def test_passing_instance(self, capsys):
        code, out = run_cli(capsys, "verify", "--m", "2", "--n", "2",
                            "--lambda", "1,1,0,0", "--samples", "3")
        assert code == 0
        report = json.loads(out)
        assert all(check["pass"] for check in report["checks"])

    def test_vanishing_instance(self, capsys):
        code, out = run_cli(capsys, "verify", "--m", "2", "--n", "2",
                            "--lambda", "1,0,0,0")
        assert code == 3
        report = json.loads(out)
        assert report["checks"][0]["check"] == "vanishing-at-samples"
        assert report["checks"][0]["pass"]

    def test_poly_emit(self, capsys):
        code, out = run_cli(capsys, "verify", "--m", "2", "--n", "2",
                            "--lambda", "0,0,0,0", "--emit", "poly")
        assert code == 0
        assert out.startswith("numerator:")
        assert "symbolic: pass" in out

    def test_poly_emit_computes_numerator_once(self, capsys, monkeypatch):
        # both formats decide on one row-set expansion, which poly also prints
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return twisted_numerator_terms(*args, **kwargs)

        for name in ("charfactor.cli", "charfactor.factorize"):
            monkeypatch.setattr(importlib.import_module(name), "twisted_numerator_terms",
                                counted)
        argv = ("verify", "--m", "3", "--n", "2", "--lambda", "2,1,1,0,0,0", "--samples", "1")
        code, out = run_cli(capsys, *argv, "--emit", "poly")
        assert code == 0
        assert len(calls) == 1
        mu = factorize((2, 1, 1, 0, 0, 0), 3, 2).mu
        assert out == (f"numerator: {twisted_numerator(mu, 3, 2)}\n"
                       "scalar: -8\nsymbolic: pass\nnumeric: pass\n")
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert len(calls) == 2
        assert json.loads(out)["checks"][0] == {"check": "symbolic-scalar", "pass": True,
                                                "scalar": "-8"}

    def test_negative_leading_weight(self, capsys):
        # argparse reads "--lambda -1,..." as a missing value; the = form works
        code, out = run_cli(capsys, "verify", "--m", "2", "--n", "2",
                            "--lambda=-1,-1,-2,-2", "--samples", "1")
        assert code == 0
        assert all(check["pass"] for check in json.loads(out)["checks"])

    def test_poly_emit_pins_non_rational_numerator(self, capsys):
        # n = 3 and odd m: the coefficients lie in Q(zeta_3) but not in Q
        code, out = run_cli(capsys, "verify", "--m", "1", "--n", "3",
                            "--lambda", "2,1,0", "--emit", "poly", "--samples", "1")
        assert code == 0
        assert out == ("numerator: (-3 - 6*z) * t1^6\n"
                       "scalar: -3 - 6*z\n"
                       "symbolic: pass\nnumeric: pass\n")

    def test_poly_emit_unbalanced_at_size_ten(self, capsys):
        # six even and four odd entries in the shifted weight: the
        # numerator is expanded in full and vanishes
        start = time.perf_counter()
        code, out = run_cli(capsys, "verify", "--m", "5", "--n", "2", "--bound", "10",
                            "--lambda", "1,0,0,0,0,0,0,0,0,0", "--emit", "poly",
                            "--samples", "1")
        elapsed = time.perf_counter() - start
        assert (code, out) == (3, "numerator: 0\nvanishing: pass\n")
        assert elapsed < 1, f"{elapsed:.2f}s"

    @pytest.mark.parametrize("emit", ["json", "poly"])
    def test_unbalanced_past_bound_exits_before_any_work(self, capsys, monkeypatch, emit):
        # m*n = 10 is past the default bound, and both formats refuse it
        # before sampling, though the weight is unbalanced
        def refuse(*args, **kwargs):
            raise AssertionError("sampled past the bound")

        monkeypatch.delenv("CHARFACTOR_BOUND", raising=False)
        monkeypatch.setattr(importlib.import_module("charfactor.factorize"),
                            "vanishes_numerically", refuse)
        code = main(["verify", "--m", "2", "--n", "5", "--lambda=1,0,0,0,0,0,0,0,0,0",
                     "--emit", emit])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == ("error: instance too large for exact enumeration "
                                "(S_10 exceeds the enumeration bound 9)\n")

    def test_zero_weight_at_size_twelve(self, capsys):
        # the JSON path checks the identity factor by factor; multiplying
        # out the factored side alone took 6.5 s here
        start = time.perf_counter()
        code, out = run_cli(capsys, "verify", "--m", "6", "--n", "2", "--bound", "12",
                            "--lambda", ",".join(["0"] * 12), "--samples", "1")
        elapsed = time.perf_counter() - start
        assert code == 0
        checks = json.loads(out)["checks"]
        assert checks[0] == {"check": "symbolic-scalar", "pass": True, "scalar": "64"}
        assert checks[1]["pass"]
        assert elapsed < 1, f"{elapsed:.2f}s"

    def test_bound_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("CHARFACTOR_BOUND", "4")
        code, _ = run_cli(capsys, "verify", "--m", "2", "--n", "3",
                          "--lambda", "0,0,0,0,0,0")
        assert code == 2

    def test_non_integer_env_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("CHARFACTOR_BOUND", "abc")
        code = main(["verify", "--m", "2", "--n", "2", "--lambda", "1,1,0,0"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: CHARFACTOR_BOUND is not an integer: 'abc'\n"

    @pytest.mark.parametrize("argv", [
        ("verify", "--m", "2", "--n", "2", "--lambda", "1,0,0,0"),
        ("coset-audit", "--m", "2", "--n", "2", "--lambda", "2,1,1,0"),
        ("denom-check", "--m", "2", "--n", "2"),
    ])
    def test_env_bound_below_one_rejected_before_any_work(self, capsys, monkeypatch, argv):
        # a bound below 1 admits no instance; it is an input error, not
        # "instance too large"
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the bound was checked")

        monkeypatch.setattr(cli, "factorize", refuse)
        monkeypatch.setattr(cli, "coset_audit", refuse)
        monkeypatch.setattr(cli, "staircase", refuse)
        monkeypatch.setenv("CHARFACTOR_BOUND", "0")
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: CHARFACTOR_BOUND must be at least 1: '0'\n"

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CHARFACTOR_BOUND", "4")
        code, _ = run_cli(capsys, "verify", "--m", "2", "--n", "3",
                          "--lambda", "0,0,0,0,0,0", "--bound", "9",
                          "--samples", "1")
        assert code == 0


class TestDenomCheckCommand:
    # m = 1, n = 1 and the shapes where the expansion and the product differ most
    SHAPES = [(1, 1), (1, 4), (3, 1), (2, 3), (3, 3), (4, 2)]

    def test_pass(self, capsys):
        for m, n in self.SHAPES:
            match = twisted_vandermonde_product(m, n) == twisted_vandermonde_closed(m, n)
            code, out = run_cli(capsys, "denom-check", "--m", str(m), "--n", str(n))
            assert code == 0
            assert out == json.dumps({"m": m, "n": n, "match": match}, indent=2) + "\n"

    def test_poly_emit(self, capsys):
        for m, n in self.SHAPES:
            direct = twisted_vandermonde_product(m, n)
            closed = twisted_vandermonde_closed(m, n)
            code, out = run_cli(capsys, "denom-check", "--m", str(m), "--n", str(n),
                                "--emit", "poly")
            assert code == 0
            assert out == f"direct: {direct}\nclosed: {closed}\nmatch: True\n"

    @pytest.mark.parametrize("argv,env", [
        (("--m", "5", "--n", "2", "--bound", "3"), None),
        (("--m", "10", "--n", "1"), None),
        (("--m", "2", "--n", "2"), "3"),
        (("--m", "100000", "--n", "100000"), None),
    ])
    def test_bound_exit_code_before_any_work(self, capsys, monkeypatch, argv, env):
        def refuse(*args, **kwargs):
            raise AssertionError("the Vandermonde work started above the bound")

        monkeypatch.setattr(cli, "staircase", refuse)
        monkeypatch.setattr(characters, "multiply_out", refuse)
        monkeypatch.setattr(cli, "twisted_vandermonde_closed", refuse)
        if env is not None:
            monkeypatch.setenv("CHARFACTOR_BOUND", env)
        else:
            monkeypatch.delenv("CHARFACTOR_BOUND", raising=False)
        code, out = run_cli(capsys, "denom-check", *argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("m,n,bound", [(5, 2, 10), (4, 3, 12), (1, 16, 16)])
    def test_past_nine_within_a_second(self, capsys, m, n, bound):
        # the multiplied-out product alone takes 1.5 s at (5, 2), 2.5 s at
        # (4, 3); a row-set expansion over the subsets of free rows, 12 s at
        # (1, 16)
        start = time.perf_counter()
        code, out = run_cli(capsys, "denom-check", "--m", str(m), "--n", str(n),
                            "--bound", str(bound))
        elapsed = time.perf_counter() - start
        assert code == 0
        assert json.loads(out)["match"] is True
        assert elapsed < 1, f"denom-check ({m}, {n}) took {elapsed:.2f}s"


class TestCosetAuditCommand:
    def test_pass_with_constants_table(self, capsys):
        code, out = run_cli(capsys, "coset-audit", "--m", "2", "--n", "2",
                            "--lambda", "2,1,1,0")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert len(report["constants"]) == 4

    def test_sampled(self, capsys):
        code, out = run_cli(capsys, "coset-audit", "--m", "2", "--n", "3",
                            "--lambda", "0,0,0,0,0,0", "--outside-sample", "5")
        assert code == 0
        assert json.loads(out)["tested_outside"] == 5

    def test_sampled_above_bound_exit_code(self, capsys):
        code, _ = run_cli(capsys, "coset-audit", "--m", "2", "--n", "5",
                          "--lambda", ",".join(["0"] * 10), "--outside-sample", "5")
        assert code == 2

    # every balanced weight with entries in [0, 1] at (2, 4) and (4, 2), the
    # zero weight at (3, 3) and one sampled (3, 3) audit; k ones, then zeros
    PINNED = [
        (2, 4, 0, None, "7d208af1ef4f7f3f"), (2, 4, 4, None, "40386a050fbe828d"),
        (2, 4, 8, None, "0a9bbcd6920868c9"), (4, 2, 0, None, "501d7148fd310365"),
        (4, 2, 2, None, "38221423fd53f08e"), (4, 2, 4, None, "79000b8032062ca2"),
        (4, 2, 6, None, "573c43adb13f5231"), (4, 2, 8, None, "8984280a3dce866f"),
        (3, 3, 0, None, "47f9e220d27e9f32"), (3, 3, 3, 40, "d7b387f4620e9390"),
    ]

    def test_reports_pinned_by_digest(self, capsys):
        # sha256 prefixes of the whole JSON report, within a 2 s budget for
        # all ten (about 0.1 s on a 2-vCPU VM)
        start = time.perf_counter()
        for m, n, ones, sample, digest in self.PINNED:
            lam = ",".join(["1"] * ones + ["0"] * (m * n - ones))
            argv = ["coset-audit", "--m", str(m), "--n", str(n), "--lambda", lam]
            if sample:
                argv += ["--outside-sample", str(sample)]
            code, out = run_cli(capsys, *argv)
            assert code == 0, argv
            assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, argv
        elapsed = time.perf_counter() - start
        assert elapsed < 2, f"pinned coset audits took {elapsed:.2f}s"

    @pytest.mark.parametrize("command", ["factor", "verify", "coset-audit"])
    def test_wrong_length_gets_the_factor_message(self, capsys, command):
        code = main([command, "--m", "2", "--n", "2", "--lambda", "1,0,0"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: weight length 3 does not match m*n = 4\n"

    def test_constants_template_matches_indented_json(self):
        # the constants are spliced into the rest of the report by text, so
        # failure messages that quote JSON must not be mistaken for them
        full = coset_audit((0,) * 10, 2, 5, outside_sample=5, bound=10)
        assert len(full.omega_powers) == 14400
        empty = CosetAuditReport(m=2, n=2, lam=(0, 0, 0, 0), tested_outside=0,
                                 omega_powers={}, failures=["column check"])
        small = coset_audit((2, 1, 1, 0), 2, 2)
        failing = dataclasses.replace(small, failures=['"constants": [],\n  "x"', "\u00e9"])
        for report in (full, empty, small, failing):
            assert cli.audit_json(report) == json.dumps(report.to_dict(), indent=2)


class TestCoxeterCommand:
    def test_standard_weight(self, capsys):
        code, out = run_cli(capsys, "coxeter", "--lambda", "1,0,0,0")
        assert code == 0
        assert json.loads(out)["value"] == 0

    def test_trivial_weight(self, capsys):
        code, out = run_cli(capsys, "coxeter", "--lambda", "0,0,0")
        assert code == 0
        assert json.loads(out)["value"] == 1


class TestBenchCommand:
    def test_csv_contract(self, capsys):
        code, out = run_cli(capsys, "bench", "--m", "2", "--n", "2",
                            "--lambda", "1,1,0,0", "--samples", "2")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert list(rows[0]) == ["m", "n", "lambda", "method",
                                 "wall_ns_mean", "wall_ns_min", "checks_passed"]
        assert {r["method"] for r in rows} == {"direct", "factored"}
        assert all(r["checks_passed"] == "2" for r in rows)

    def test_unbalanced_weight(self, capsys):
        code, _ = run_cli(capsys, "bench", "--m", "2", "--n", "2",
                          "--lambda", "1,0,0,0")
        assert code == 3

    def test_run_benchmark_rejects_an_unbalanced_weight(self):
        with pytest.raises(ValueError, match="benchmark needs a balanced weight"):
            run_benchmark(factorize((1, 0, 0, 0), 2, 2))

    def test_run_benchmark_checks(self):
        rows, ok = run_benchmark(factorize((2, 1, 1, 0), 2, 2), samples=2)
        assert ok
        assert all(row["checks_passed"] == 2 for row in rows)


class TestSweepCommand:
    def test_small_sweep(self, capsys):
        code, out = run_cli(capsys, "sweep", "--m", "2", "--n", "2",
                            "--min", "0", "--max", "1", "--samples", "2")
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["total"] == 5
        assert report["summary"]["failed"] == 0
        assert report["summary"]["balanced"] + report["summary"]["vanishing"] == 5

    def test_empty_range(self, capsys, monkeypatch):
        # --min above --max holds no weight, so nothing would be checked
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the range was checked")

        monkeypatch.setattr(cli, "factorize", refuse)
        code = main(["sweep", "--m", "2", "--n", "2", "--min", "3", "--max", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: --min must not exceed --max\n"

    def test_more_coordinates_than_the_sample_range(self, capsys):
        # t is drawn from [2, 97] up to m = 96 and from [2, m + 1] past it
        code, out = run_cli(capsys, "sweep", "--m", "97", "--n", "1", "--min", "0",
                            "--max", "0", "--samples", "1")
        assert code == 0
        assert json.loads(out)["summary"] == {"total": 1, "balanced": 1,
                                              "vanishing": 0, "failed": 0}

    def test_csv_emit(self, capsys):
        code, out = run_cli(capsys, "sweep", "--m", "1", "--n", "2",
                            "--min", "0", "--max", "2", "--samples", "1",
                            "--emit", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6
        assert all(r["check_passed"] == "True" for r in rows)

    def test_process_pool_output_matches_serial(self, capsys, monkeypatch):
        # two CPUs, so the pool is not capped to a serial run
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        argv = ("sweep", "--m", "2", "--n", "3", "--min", "0", "--max", "2",
                "--samples", "1")
        serial = run_cli(capsys, *argv, "--jobs", "1")
        pooled = run_cli(capsys, *argv, "--jobs", "2")
        assert serial[0] == 0
        assert json.loads(serial[1])["summary"]["total"] > 0
        assert pooled == serial

    @pytest.mark.parametrize("argv,cpus,workers", [
        (("--m", "1", "--n", "1", "--min", "0", "--max", "0", "--jobs", "3"), 4, []),
        (("--m", "1", "--n", "2", "--min", "0", "--max", "2", "--jobs", "1000000"), 4, [4]),
        (("--m", "1", "--n", "2", "--min", "0", "--max", "1", "--jobs", "1000000"), 8, [3]),
        (("--m", "1", "--n", "2", "--min", "0", "--max", "2", "--jobs", "5"), None, []),
        (("--m", "1", "--n", "2", "--min", "0", "--max", "2", "--jobs", "2"), 8, [2]),
        (("--m", "2", "--n", "2", "--min", "0", "--max", "4", "--jobs", "2"), 8, [2]),
    ])
    def test_pool_capped_at_weights_and_cpus(self, capsys, monkeypatch, argv, cpus, workers):
        # a fake pool records its size and chunk size and runs serially, so
        # no worker process starts; one worker runs without a pool at all
        started, chunks = [], []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, items, chunksize=1):
                chunks.append(chunksize)
                return map(func, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        code, out = run_cli(capsys, "sweep", *argv, "--samples", "1")
        assert code == 0
        assert json.loads(out)["summary"]["failed"] == 0
        assert started == workers
        # a task carries a quarter of a worker's share, so a sweep of many
        # weights (70 on 2 workers) sends more than one weight per task
        total = json.loads(out)["summary"]["total"]
        assert chunks == [ceil(total / (4 * w)) for w in workers]
        assert total <= 4 * sum(workers) or all(c > 1 for c in chunks)

    def test_rows_sorted_by_weight(self, capsys):
        code, out = run_cli(capsys, "sweep", "--m", "1", "--n", "2",
                            "--min", "0", "--max", "2", "--samples", "1")
        assert code == 0
        rows = json.loads(out)["rows"]
        lams = [tuple(r["lambda"]) for r in rows]
        assert lams == sorted(lams)


class TestParsing:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["factor", "--nope"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_module_entry_point(self):
        # the child imports the package under test, installed or not
        src = os.path.dirname(os.path.dirname(charfactor.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "charfactor", "coxeter", "--lambda", "0,0"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == 1
