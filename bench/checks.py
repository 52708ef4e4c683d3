"""Correctness checks, run after the timed loop in the parent process.

Nothing here compares with stored output.  Each check recomputes what the
program claims in ``qarith`` (pairs of ``Fraction``), or tests a property
the method must have: the verdict a constructed point was built to have, or
the number of cases an exhaustive monomial basis must give.  Each function
returns a list of problems; empty means the item passed.
"""

from __future__ import annotations

import json
import math
import os
import random

import qarith as qa

#: check names ``verify --skip-operators`` prints per trial
VERIFY_CHECKS = ["poisson-bracket", "hamiltonian-moments", "hecke-identity",
                 "trace-squared-identity", "orthomodel"]


def _lines(output):
    return [json.loads(line) for line in output.splitlines() if line.strip()]


def _run(cli, argv, path):
    try:
        rc = cli.main(argv + ["--out", path])
    except Exception as e:  # a program fault fails the check, not the run
        return f"raised {type(e).__name__}: {e}", ""
    text = ""
    if os.path.exists(path):
        with open(path) as fh:
            text = fh.read()
        os.remove(path)
    return rc, text


def check_verify(rec, cli, scratch, rng):
    trials = rec["shape"][1]
    problems = _check_report(rec, VERIFY_CHECKS * trials)
    rc, text = _run(cli, rec["expect"]["sample"], scratch)
    if rc != 0:
        return problems + [f"qgaudin sample exited {rc}"]
    docs = _lines(text)
    if len(docs) != trials:
        problems.append(f"sample gave {len(docs)} points, expected {trials}")
    for doc in docs:
        n = doc["N"]
        pairs = [(0, 1), tuple(rng.sample(range(n), 2))]
        mu, x, y = ([qa.parse(v) for v in doc[k]] for k in ("mu", "x", "y"))
        if not all(qa.is_zero(c) for c in qa.constraints(mu, x, y)):
            problems.append("sampled point violates a constraint")
        f = qa.hamiltonians(mu, x, y)
        for k in range(3):
            moment = qa.total(qa.mul(_power(m, k), fi) for m, fi in zip(mu, f))
            if not qa.is_zero(moment):
                problems.append(f"sum mu^{k} f != 0")
        for a, b in pairs:
            if not qa.is_zero(qa.bracket(mu, x, y, a, b)):
                problems.append(f"{{f_{a + 1}, f_{b + 1}}} != 0")
    return problems


def _power(m, k):
    out = qa.ONE
    for _ in range(k):
        out = qa.mul(out, m)
    return out


def _check_report(rec, names):
    """Exit 0, a passing line for each expected check, and summary ok."""
    if rec["rc"] != 0:
        return [f"exit code {rec['rc']}"]
    lines = _lines(rec["output"])
    got = [d["check"] for d in lines if "check" in d]
    problems = []
    if sorted(got) != sorted(names):
        problems.append(f"checks {got} != expected {names}")
    problems += [f"{d['check']} failed" for d in lines if "check" in d and d["pass"] is not True]
    if not lines or lines[-1].get("summary") != "ok":
        problems.append("summary is not ok")
    return problems


def check_classify(rec):
    if rec["rc"] != 0:
        return [f"exit code {rec['rc']}"]
    (out,) = _lines(rec["output"])
    doc, expect = rec["doc"], rec["expect"]
    mu, x = [qa.parse(v) for v in doc["mu"]], [qa.parse(v) for v in doc["x"]]
    n = len(mu)
    problems = []
    if out["verdict"] != expect["verdict"]:
        problems.append(f"verdict {out['verdict']} for a {expect['verdict']} point")
    p = qa.auxiliary(mu, x)
    repeated = len(p) - 1 <= n - 5 or qa.pgcd_degree(p, qa.pderiv(p)) > 0
    if expect["verdict"] == "very_stable":
        if repeated:
            problems.append("very stable input has a repeated root")
        if "witness" in out:
            problems.append("witness returned for a very stable point")
        return problems
    if not repeated:
        problems.append("wobbly input has distinct roots")
    if expect["verdict"] == "degenerate":
        if out.get("resolved") != expect["resolved"]:
            problems.append(f"resolved {out.get('resolved')} != {expect['resolved']}")
        if out.get("zero_indices") != expect["zero_indices"]:
            problems.append("zero_indices differ from the padded coordinates")
    if "witness" not in out:
        return problems + ["no witness for a wobbly point"]
    y = [qa.parse(v) for v in out["witness"]]
    if not all(qa.is_zero(c) for c in qa.constraints(mu, x, y)[2:]):
        problems.append("witness violates sum x y = sum mu x y = 0")
    if not all(qa.is_zero(f) for f in qa.hamiltonians(mu, x, y)):
        problems.append("witness has a nonzero Hamiltonian")
    if qa.proportional(x, y):
        problems.append("witness is proportional to x")
    return problems


def _basis(n, d):
    """Monomials of degree <= d in n variables."""
    return math.comb(n + d, d)


def _suite_degree(n):
    """Degree the descent suite covers by default (diffops.default_dmax - 1)."""
    return (3 if n <= 6 else 2) - 1


def check_operators(rec):
    n, dmax = rec["shape"]
    b = _basis(n, dmax)
    triples = math.comb(n, 3)
    fixed = {
        "[Om_ij, Om_kl] = 0 for disjoint pairs": 3 * math.comb(n, 4) * b,
        "[Om_ij, Om_ik + Om_jk] = 0": triples * b,
        "[Om_ij, Om_ij + Om_ik + Om_jk] = 0": triples * b,
        "[X_ij, X_ik] = -X_jk": triples * b,
        "[Delta_i, Delta_j] = 0": math.comb(n, 2) * b,
        "Delta_i q1 = -2N x_i^2 (mod q)": 2 * n,
    }
    # two checks per (i, monomial) over a full basis.  These two suites
    # ignore --dmax today and cover their default degree; a suite that
    # honoured --dmax would cover that degree.  No other degree is accepted.
    full_basis = {
        "descent suite": {_suite_degree(n), dmax},
        "symbol of Delta_i against dq1": {2, dmax},
    }
    problems = _check_report(rec, list(fixed) + list(full_basis))
    for d in _lines(rec["output"]):
        name = d.get("check")
        if name in fixed and d["cases"] != fixed[name]:
            problems.append(f"{name}: {d['cases']} cases, expected {fixed[name]}")
        if name in full_basis and d["cases"] not in {2 * n * _basis(n, k) for k in full_basis[name]}:
            problems.append(f"{name}: {d['cases']} cases, expected 2N C(N+k, k) "
                            f"for k in {sorted(full_basis[name])}")
    return problems


def check_planted_fault(cli, scratch, seed):
    """``verify --inject-fault delta-sign`` must exit 2 and name poisson-bracket."""
    argv = ["verify", "--n", "5", "--trials", "1", "--seed", str(seed),
            "--skip-operators", "--inject-fault", "delta-sign"]
    rc, text = _run(cli, argv, scratch)
    lines = _lines(text)
    named = any(d.get("check") == "poisson-bracket" and d["pass"] is False for d in lines)
    named = named and lines and any("poisson-bracket" in f for f in lines[-1].get("failures", []))
    if rc != 2 or not named:
        return [f"planted fault: exit {rc}, poisson-bracket named: {bool(named)}"]
    return []


def check_item(rec, cli, scratch, seed):
    rng = random.Random(f"check:{seed}:{rec['index']}")
    if rec["kind"] == "verify-exact":
        return check_verify(rec, cli, scratch, rng)
    if rec["kind"] == "classify-witness":
        return check_classify(rec)
    return check_operators(rec)
