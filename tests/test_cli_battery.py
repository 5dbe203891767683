"""Golden CLI battery: the stdout, stderr and exit code of every invocation
in `battery()`, run in-process through `cli.main`, against the sha256
digests recorded in cli_battery.json.

The battery covers `factor`, `verify` (json and poly) and `denom-check`
(json and poly) at all 20 shapes with m*n <= 8, `coset-audit` at m*n <= 6,
`coxeter` on sizes 1-8, `sweep` (json and csv), `bench` (its two wall-time
columns masked), and the bound and input-error cases.  At (8, 1) it keeps
one multiply-out, `denom-check` in json.

A change that alters an output on purpose re-records the file with

    PYTHONPATH=src python tests/test_cli_battery.py

and names the entries whose digests changed.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import time

from charfactor import cli

BATTERY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_battery.json")
# the whole battery takes about 3 s on a 2-vCPU VM
BUDGET_S = 8

SHAPES = [(m, n) for size in range(1, 9) for m in range(1, size + 1)
          for n in (size // m,) if m * n == size]


def _lam(values):
    # the = form, so that a negative first entry parses
    return "--lambda=" + ",".join(map(str, values))


def _weights(size):
    # k ones then zeros for every k, then (2, 1, 0, ...) and (1, 0, ..., -1)
    out = [(1,) * k + (0,) * (size - k) for k in range(size + 1)]
    if size > 1:
        out += [(2, 1) + (0,) * (size - 2), (1,) + (0,) * (size - 2) + (-1,)]
    return out


def battery():
    """The argv of every invocation, in order."""
    runs = []
    for m, n in SHAPES:
        mn = ["--m", str(m), "--n", str(n)]
        for lam in _weights(m * n):
            runs.append(["factor", *mn, _lam(lam)])
            runs.append(["verify", *mn, _lam(lam), "--samples", "2"])
            # multiplying out one alternant of size 8 takes most of a second
            if m < 8 and (m < 7 or lam == (0,) * 7):
                runs.append(["verify", *mn, _lam(lam), "--samples", "1", "--emit", "poly"])
        runs.append(["denom-check", *mn])
        if m < 8:
            runs.append(["denom-check", *mn, "--emit", "poly"])
        if m * n <= 6:
            for lam in _weights(m * n):
                runs.append(["coset-audit", *mn, _lam(lam)])
            runs.append(["coset-audit", *mn, _lam((0,) * (m * n)), "--outside-sample", "3"])
            runs.append(["coset-audit", *mn, _lam((0,) * (m * n)), "--outside-sample", "2",
                         "--seed", "7"])
    for size in range(1, 9):
        for lam in _weights(size):
            runs.append(["coxeter", _lam(lam)])
    for argv in (["--m", "2", "--n", "2", "--min", "0", "--max", "2", "--samples", "2"],
                 ["--m", "2", "--n", "3", "--min", "0", "--max", "1", "--samples", "1"],
                 ["--m", "3", "--n", "2", "--min", "-1", "--max", "1", "--samples", "1"],
                 ["--m", "1", "--n", "3", "--min", "0", "--max", "2", "--samples", "1"]):
        runs.append(["sweep", *argv])
        runs.append(["sweep", *argv, "--emit", "csv"])
    for m, n, lam in ((2, 2, (1, 1, 0, 0)), (2, 3, (2, 1, 1, 0, 0, 0)),
                      (3, 2, (2, 1, 1, 0, 0, 0)), (2, 2, (1, 0, 0, 0))):
        mn = ["--m", str(m), "--n", str(n), _lam(lam)]
        runs.append(["bench", *mn, "--samples", "2"])
        runs.append(["bench", *mn, "--samples", "2", "--emit", "json"])
    # past the bound, by default or by --bound; balanced and unbalanced
    for m, n, bound in ((7, 1, "6"), (8, 1, "7"), (3, 3, "8"), (2, 5, None), (4, 4, None)):
        mn = ["--m", str(m), "--n", str(n)] + (["--bound", bound] if bound else [])
        for lam in ((0,) * (m * n), (1,) + (0,) * (m * n - 1)):
            runs.append(["factor", *mn, _lam(lam)])
            runs.append(["verify", *mn, _lam(lam), "--samples", "1"])
            runs.append(["verify", *mn, _lam(lam), "--samples", "1", "--emit", "poly"])
            runs.append(["coset-audit", *mn, _lam(lam)])
            runs.append(["coset-audit", *mn, _lam(lam), "--outside-sample", "3"])
        runs.append(["denom-check", *mn])
    runs += [
        ["verify", "--m", "3", "--n", "3", _lam((0,) * 9), "--samples", "1"],
        ["verify", "--m", "2", "--n", "2", _lam((1, 1, 0, 0)), "--samples", "0"],
        ["bench", "--m", "2", "--n", "2", _lam((1, 1, 0, 0)), "--samples", "0"],
        ["sweep", "--m", "2", "--n", "2", "--min", "0", "--max", "1", "--samples", "0"],
        ["sweep", "--m", "2", "--n", "2", "--min", "2", "--max", "0"],
        ["sweep", "--m", "2", "--n", "2", "--min", "0", "--max", "1", "--jobs", "0"],
        ["coset-audit", "--m", "2", "--n", "2", _lam((1, 1, 0, 0)), "--outside-sample", "0"],
        ["factor", "--m", "0", "--n", "2", _lam((0, 0))],
        ["denom-check", "--m", "2", "--n", "-1"],
        ["factor", "--m", "2", "--n", "2", _lam((1, 1, 0, 0)), "--emit", "poly"],
        ["verify", "--m", "2", "--n", "2", _lam((1, 1, 0, 0)), "--emit", "csv"],
        ["coset-audit", "--m", "2", "--n", "2", _lam((1, 1, 0, 0)), "--emit", "csv"],
        ["coxeter", _lam((1, 0)), "--emit", "poly"],
        ["bench", "--m", "2", "--n", "2", _lam((1, 1, 0, 0)), "--emit", "poly"],
        ["sweep", "--m", "2", "--n", "2", "--min", "0", "--max", "1", "--emit", "poly"],
        ["factor", "--m", "2", "--n", "2", _lam((1, 1, 0, 0)), "--emit", "xml"],
        ["factor", "--m", "2", "--n", "2", _lam((1, 1, 0, 0)), "--output", "/"],
        ["factor", "--m", "2", "--n", "2", _lam((1, 1, 0, 0)),
         "--output", "/nonexistent-charfactor-dir/out.json"],
        ["factor", "--m", "2", "--n", "2", "--lambda", "1,x,0,0"],
        ["factor", "--m", "2", "--n", "2", "--lambda", "0,1,0,0"],
        ["factor", "--m", "2", "--n", "2", "--lambda", "0,0,0"],
        ["verify", "--m", "2", "--n", "2", "--lambda", "-1,-1,-2,-2"],
        ["coset-audit", "--m", "2", "--n", "2", "--lambda", "1,0,0,0"],
        ["factor", "--m", "2", "--n", "2"],
        ["frobnicate"],
        [],
    ]
    return runs


def _mask(stdout):
    # bench's wall times vary from run to run: csv columns 5 and 6, json keys
    stdout = re.sub(r'("wall_ns_(?:mean|min)": )\d+', r"\1#", stdout)
    return re.sub(r"^(.*,(?:direct|factored)),\d+,\d+,", r"\1,#,#,", stdout, flags=re.M)


def run(argv):
    """(stdout, stderr, exit code) of `cli.main(argv)` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return _mask(out.getvalue()), err.getvalue(), code


def digests(argv):
    stdout, stderr, code = run(argv)
    return {"argv": argv,
            "stdout": hashlib.sha256(stdout.encode()).hexdigest(),
            "stderr": hashlib.sha256(stderr.encode()).hexdigest(),
            "code": code}


def test_battery_matches_recorded_digests(monkeypatch):
    # usage lines wrap at the terminal width; the bound has an env override
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("CHARFACTOR_BOUND", raising=False)
    with open(BATTERY) as handle:
        recorded = json.load(handle)
    assert [entry["argv"] for entry in recorded] == battery()
    start = time.perf_counter()
    changed = [entry["argv"] for entry in recorded if digests(entry["argv"]) != entry]
    elapsed = time.perf_counter() - start
    assert not changed, f"{len(changed)} of {len(recorded)} outputs changed: {changed[:5]}"
    assert elapsed < BUDGET_S, f"battery took {elapsed:.2f}s"


def test_mask_hides_only_wall_times():
    csv_text = "m,n,lambda,method,wall_ns_mean,wall_ns_min,checks_passed\n" \
               "2,2,1 1 0 0,direct,1234,999,2\n"
    assert _mask(csv_text).splitlines()[1] == "2,2,1 1 0 0,direct,#,#,2"
    assert _mask('"wall_ns_min": 17,\n"checks_passed": 2') == '"wall_ns_min": #,\n"checks_passed": 2'


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    os.environ.pop("CHARFACTOR_BOUND", None)
    entries = [digests(argv) for argv in battery()]
    with open(BATTERY, "w") as handle:
        json.dump(entries, handle, indent=1)
        handle.write("\n")
    print(f"recorded {len(entries)} invocations in {BATTERY}", file=sys.stderr)
