import json
import math
import time
from fractions import Fraction

import pytest

from quadric_gaudin.cli import EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main
from quadric_gaudin.serialize import (
    dumps,
    point_from_json,
    point_to_json,
    scalar_from_json,
    scalar_to_json,
)
from quadric_gaudin.phase import sample_phase_point
from quadric_gaudin.scalars import gr


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_scalar_json_roundtrip():
    v = gr(3, -2)
    assert scalar_from_json(scalar_to_json(v)) == v
    f = 1.5 - 2.25j
    assert scalar_from_json(scalar_to_json(f)) == f


def test_point_json_roundtrip():
    pt = sample_phase_point(6, 4)
    doc = json.loads(dumps(point_to_json(pt)))
    back = point_from_json(doc)
    assert back.x == pt.x and back.y == pt.y
    assert [str(m) for m in back.pencil.mu] == [str(m) for m in pt.pencil.mu]


def test_sample_emits_trials_with_zero_residuals(capsys):
    code, out, _ = run(capsys, "sample", "--n", "6", "--trials", "3", "--seed", "1")
    assert code == EXIT_OK
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 3
    for doc in lines:
        assert doc["mode"] == "exact"
        assert all(r == "0/1+0/1 i" for r in doc["constraint_residuals"])


def test_sample_usage_errors(capsys):
    code, _, err = run(capsys, "sample", "--n", "4")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "sample", "--mu", "0,1,2,2,4")
    assert code == EXIT_USAGE and "distinct" in err


def test_explicit_pencil_without_a_seed_point_is_usage_error(capsys):
    # no point with entries a + bi, |a|, |b| <= 2, lies on this pencil's X
    code, out, err = run(capsys, "sample", "--mu=-12,-6,0,5,9", "--trials", "1")
    assert code == EXIT_USAGE and out == ""
    assert err == ("usage error: no small Gaussian-integer points found on this pencil; "
                   "use float mode or sample_pencil_point\n")


def test_explicit_pencil_seed_search_runs_once_per_command(capsys, monkeypatch):
    from quadric_gaudin import phase

    calls = []
    search = phase._seed_search
    monkeypatch.setattr(phase, "_seed_search", lambda pencil: calls.append(pencil) or search(pencil))
    code, out, _ = run(capsys, "sample", "--mu", "0,1,2,3,4,5", "--trials", "3")
    assert code == EXIT_OK and len(out.strip().splitlines()) == 3
    assert len(calls) == 1
    code, out, _ = run(capsys, "classify", "--mu", "0,1,2,3,4,5", "--trials", "3")
    assert code == EXIT_OK and len(out.strip().splitlines()) == 3
    assert len(calls) == 2


def test_sample_deterministic(capsys):
    _, out1, _ = run(capsys, "sample", "--n", "5", "--trials", "2", "--seed", "7")
    _, out2, _ = run(capsys, "sample", "--n", "5", "--trials", "2", "--seed", "7")
    assert out1 == out2
    _, out3, _ = run(capsys, "sample", "--n", "5", "--trials", "2", "--seed", "8")
    assert out1 != out3


def test_verify_default_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "5", "--trials", "2", "--seed", "3", "--dmax", "2"
    )
    assert code == EXIT_OK
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert lines[-1]["summary"] == "ok"
    names = {d.get("check") for d in lines if "check" in d}
    assert "poisson-bracket" in names and "[Delta_i, Delta_j] = 0" in names


def test_verify_fault_injection_names_relation(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--n", "5", "--trials", "1", "--seed", "3",
        "--skip-operators", "--inject-fault", "delta-sign",
    )
    assert code == EXIT_VERIFICATION
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert lines[-1]["summary"] == "failed"
    assert any("poisson-bracket" in f for f in lines[-1]["failures"])


def test_verify_float_mode(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--n", "6", "--trials", "2", "--seed", "2",
        "--mode", "float", "--tol", "1e-9", "--skip-operators",
    )
    assert code == EXIT_OK


def test_classify_fixture_roundtrip(tmp_path, capsys, pencil01234, fix_a, fix_c):
    doc = point_to_json(fix_c)
    path = tmp_path / "point.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "classify", "--point", str(path))
    assert code == EXIT_OK
    got = json.loads(out.strip())
    assert got["verdict"] == "very_stable"
    assert got["kernel_dim"] == 1


def test_classify_wobbly_emits_witness(tmp_path, capsys):
    from conftest import exact_wobbly_point
    from quadric_gaudin.phase import PhasePoint

    pencil, x, _ = exact_wobbly_point(21)
    pt = PhasePoint(pencil, x, [gr(0)] * 5)

    path = tmp_path / "w.json"
    path.write_text(json.dumps(point_to_json(pt)))
    code, out, _ = run(capsys, "classify", "--point", str(path))
    assert code == EXIT_OK
    got = json.loads(out.strip())
    assert got["verdict"] == "wobbly"
    assert "witness" in got and len(got["witness"]) == 5


def test_classify_sweep_csv(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys,
        "classify", "--n", "5", "--trials", "3", "--seed", "11",
        "--csv", str(csv_path),
    )
    assert code == EXIT_OK
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "trial,verdict,n_distinct_roots,witness"
    assert len(rows) == 4


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.jsonl"
    code, out, _ = run(
        capsys, "sample", "--n", "5", "--trials", "1", "--seed", "0", "--out", str(path)
    )
    assert code == EXIT_OK and out == ""
    assert path.read_text().strip()


def test_repeated_sample_runs_are_identical(capsys):
    _, out1, _ = run(capsys, "sample", "--n", "5", "--trials", "4", "--seed", "5")
    _, out2, _ = run(capsys, "sample", "--n", "5", "--trials", "4", "--seed", "5")
    assert out1 == out2


def test_diffops_verify_subcommand(capsys):
    code, out, _ = run(capsys, "diffops-verify", "--n", "5", "--dmax", "2")
    assert code == EXIT_OK
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert lines[-1]["summary"] == "ok"
    assert all("cases" in d for d in lines[:-1])


def test_orthomodel_verify_subcommand(capsys, tmp_path):
    code, out, _ = run(
        capsys, "orthomodel-verify", "--n", "5", "--trials", "2", "--seed", "6"
    )
    assert code == EXIT_OK
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert lines[-1]["summary"] == "ok"
    assert lines[0]["phi_equivalence"] and lines[0]["skew_adjoint"]
    # float mode reports the worst residual
    code, out, _ = run(
        capsys,
        "orthomodel-verify", "--n", "5", "--trials", "1", "--seed", "6",
        "--mode", "float",
    )
    assert code == EXIT_OK
    doc = json.loads(out.strip().splitlines()[0])
    assert "worst_residual" in doc and doc["worst_residual"] < 1e-9


def test_classify_fix_b_degenerate_chain_via_cli(tmp_path, capsys, monkeypatch, pencil01234, fix_b):
    import quadric_gaudin.verystable as verystable
    from quadric_gaudin.phase import PhasePoint

    # one classification per level of the reduction chain: the witness
    # reads the verdicts instead of classifying again
    calls = []
    classify = verystable.classify

    def counted(x, pencil):
        calls.append(len(x))
        return classify(x, pencil)

    monkeypatch.setattr(verystable, "classify", counted)
    pt = PhasePoint(pencil01234, fix_b, [gr(0)] * 5)
    path = tmp_path / "b.json"
    path.write_text(json.dumps(point_to_json(pt)))
    code, out, _ = run(capsys, "classify", "--point", str(path))
    assert code == EXIT_OK
    got = json.loads(out.strip())
    assert got["verdict"] == "degenerate"
    assert got["reduced_chain"] == ["degenerate", "very_stable"]
    assert got["zero_indices"] == [4]
    assert calls == [5, 4]


def test_structured_serializers(fix_c):
    from quadric_gaudin.higgs import hecke_transform, reduced_tr_phi_squared
    from quadric_gaudin.serialize import hecke_to_json, reduced_to_json, separated_to_json
    from quadric_gaudin.sov import separate

    t = hecke_to_json(hecke_transform(fix_c))
    assert t["c"] == ["24/1+0/1 i", "-40/1+0/1 i", "10/1+0/1 i"]
    rq = reduced_to_json(reduced_tr_phi_squared(fix_c))
    assert rq["f"][0] == "-35/1+0/1 i"
    sep = separated_to_json(separate(fix_c))
    assert sep["infinity_multiplicity"] == 0
    assert len(sep["finite_roots"]) == 2 and len(sep["lambdas"]) == 2
    assert sep["p"] == ["24/1+0/1 i", "-40/1+0/1 i", "10/1+0/1 i"]


def _checks(out):
    return {d["check"]: d for d in map(json.loads, out.strip().splitlines()) if "check" in d}


@pytest.mark.parametrize("n", [5, 7, 8])
def test_default_operator_degrees_are_complete_at_every_n(capsys, n):
    code, out, _ = run(capsys, "diffops-verify", "--n", str(n))
    assert code == EXIT_OK
    checks = _checks(out)
    assert len(checks) == 8
    assert all(d["pass"] and d["complete"] for d in checks.values()), checks
    # degree 3 for the commutator suites, degree 1 for the first-order ones
    assert checks["[Delta_i, Delta_j] = 0"]["cases"] == math.comb(n, 2) * math.comb(n + 3, 3)
    assert checks["descent suite"]["cases"] == 2 * n * (n + 1)


def test_dmax_below_the_order_bound_is_reported_incomplete(capsys):
    code, out, _ = run(capsys, "diffops-verify", "--n", "5", "--dmax", "2")
    assert code == EXIT_OK
    complete = {name: d["complete"] for name, d in _checks(out).items()}
    assert complete == {
        "[Om_ij, Om_kl] = 0 for disjoint pairs": False,
        "[Om_ij, Om_ik + Om_jk] = 0": False,
        "[Om_ij, Om_ij + Om_ik + Om_jk] = 0": False,
        "[X_ij, X_ik] = -X_jk": False,
        "[Delta_i, Delta_j] = 0": False,
        "descent suite": True,
        "Delta_i q1 = -2N x_i^2 (mod q)": True,
        "symbol of Delta_i against dq1": True,
    }


@pytest.mark.parametrize("command", ["verify", "diffops-verify"])
def test_n_is_taken_from_mu(capsys, command):
    # six marked points and no --n used to fail with "pencil size mismatch"
    trials = ["--trials", "1"] if command == "verify" else []
    code, out, err = run(capsys, command, "--mu", "0,1,2,3,4,5", "--dmax", "1", *trials)
    assert code == EXIT_OK, err
    assert _checks(out)["descent suite"]["cases"] == 2 * 6 * 7


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "9", "--mu", "0,1,2,3,4"],
    ["classify", "--n", "9", "--mu", "0,1,2,3,4"],
    ["verify", "--n", "5", "--mu", "0,1,2,3,4,5"],
    ["diffops-verify", "--n", "7", "--mu", "0,1,2,3,4,5"],
])
def test_n_disagreeing_with_mu_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert "disagrees" in err


@pytest.mark.parametrize("argv", [
    ["diffops-verify", "--dmax", "-1"],
    ["verify", "--trials", "0"],
    ["classify", "--trials", "0"],
    ["orthomodel-verify", "--trials", "0"],
    ["verify", "--n", "4", "--skip-operators"],
    ["sample", "--mu", "0,1,2,3"],
    ["sample", "--mu", "0,1,2,3,1/0"],
    ["sample", "--trials", "many"],
])
def test_out_of_range_values_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("usage error:")


@pytest.mark.parametrize("argv", [
    ["diffops-verify", "--mode", "float"],
    ["diffops-verify", "--seed", "1"],
    ["diffops-verify", "--trials", "2"],
    ["diffops-verify", "--tol", "1e-6"],
    ["classify", "--mode", "float"],
    ["classify", "--tol", "1e-6"],
])
def test_options_a_command_does_not_read_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert "unrecognized arguments" in err


def test_dmax_reaches_descent_and_symbol_suites(capsys):
    code, out, _ = run(capsys, "diffops-verify", "--n", "5", "--dmax", "1")
    assert code == EXIT_OK
    cases = {d["check"]: d["cases"] for d in map(json.loads, out.strip().splitlines()) if "check" in d}
    # 2 checks per (i, monomial of degree <= 1): 2 * 5 * C(6, 1)
    assert cases["descent suite"] == 60
    assert cases["symbol of Delta_i against dq1"] == 60


@pytest.mark.parametrize("command", ["classify", "orthomodel-verify"])
@pytest.mark.parametrize("field", ["mu", "y"])
def test_point_document_mixing_domains_is_usage_error(tmp_path, capsys, fix_c, command, field):
    doc = point_to_json(fix_c)
    doc[field][1] = [1.0, 0.0]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, "--point", str(path))
    assert code == EXIT_USAGE
    assert out == "" and "mix exact and float scalars" in err


@pytest.mark.parametrize("command", ["classify", "orthomodel-verify"])
@pytest.mark.parametrize("text", [
    '{"N": 5, "mu": [], "y": []}',
    '[1, 2]',
    '{"mu": 1, "x": [], "y": []}',
], ids=["no-x", "list", "not-a-list"])
def test_malformed_point_document_is_usage_error(tmp_path, capsys, command, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, command, "--point", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("usage error:") and "point document" in err


@pytest.mark.parametrize("argv", [
    ["classify", "--n", "9"],
    ["classify", "--mu", "0,1,2,3,4"],
    ["classify", "--seed", "3"],
    ["classify", "--trials", "5"],
    ["orthomodel-verify", "--n", "5"],
    ["orthomodel-verify", "--mu", "0,1,2,3,4"],
    ["orthomodel-verify", "--seed", "0"],
    ["orthomodel-verify", "--trials", "3"],
    ["orthomodel-verify", "--mode", "exact"],
])
def test_point_with_sampling_options_is_usage_error(tmp_path, capsys, fix_c, argv):
    # the document fixes the pencil and the point: these options would be ignored
    path = tmp_path / "point.json"
    path.write_text(dumps(point_to_json(fix_c)))
    code, out, err = run(capsys, *argv, "--point", str(path))
    assert code == EXIT_USAGE and out == ""
    assert f"{argv[1]} does not apply to a --point document" in err


def test_point_keeps_tol(tmp_path, capsys, fix_c):
    path = tmp_path / "point.json"
    path.write_text(dumps(point_to_json(fix_c)))
    code, out, _ = run(capsys, "orthomodel-verify", "--point", str(path), "--tol", "1e-6")
    assert code == EXIT_OK
    assert json.loads(out.strip().splitlines()[-1]) == {"summary": "ok"}


def _marked_document(tmp_path, mu, x):
    from quadric_gaudin.phase import Pencil, PhasePoint
    from quadric_gaudin.scalars import ZERO

    path = tmp_path / "marked.json"
    pt = PhasePoint(Pencil([gr(m) for m in mu]), x, [ZERO] * len(mu))
    path.write_text(dumps(point_to_json(pt)))
    return str(path)


def _verified(mu, x, witness):
    from quadric_gaudin.higgs import hamiltonians, hecke_transform, is_nilpotent
    from quadric_gaudin.phase import Pencil, PhasePoint
    from quadric_gaudin.verystable import is_gauge_trivial

    y = [scalar_from_json(v) for v in witness]
    pt = PhasePoint(Pencil([gr(m) for m in mu]), x, y)
    return (not any(hamiltonians(pt)) and is_nilpotent(hecke_transform(pt))
            and not is_gauge_trivial(x, y))


def _q(a, b=0):
    return gr(Fraction(a), Fraction(b))


# double roots of p at deleted marked points.  The first used to exhaust a
# search over small combinations (exit 70), the second to raise TypeError
# from a complex zero in an exact row; the last two took 23 s to exit 70.
MARKED_DOCUMENTS = [
    ((-11, -7, 0, 7, 11), [_q("1/6"), _q(0, "1/6"), _q(0), _q(0, "1/6"), _q("1/6")],
     {"witness": ["0/1+7/2 i", "-9/2+0/1 i", "0/1-3/1 i", "1/1+0/1 i", "0/1+0/1 i"]}),
    ((-13, -7, 1, 2, 8, 11), [_q(0), _q(6), _q(0, 54), _q(60), _q(0, 36), _q(24)],
     {"infinity_multiplicity": 1,
      "witness": ["-2/1+0/1 i", "0/1-7/2 i", "15/2+0/1 i", "0/1-7/1 i", "1/1+0/1 i", "0/1+0/1 i"]}),
    ((-9, -1, 2, 3, 7, 11, 13), [_q(176), _q(0), _q(704), _q(0, 880), _q(528), _q(0, 176), _q(0)],
     {"witness_radicands": ["33880/3+0/1 i", "-3584/1+0/1 i"]}),
    ((-7, -6, -4, -1, 0, 2, 14),
     [_q(126), _q(0, "315/2"), _q("189/2"), _q(0), _q("63/2"), _q(0, "63/2"), _q(0)],
     {"witness_radicands": ["1323/1+0/1 i", "-9/32+0/1 i"]}),
]


@pytest.mark.parametrize("mu, x, expected", MARKED_DOCUMENTS, ids=["N5", "N6", "N7a", "N7b"])
def test_marked_double_root_documents(tmp_path, capsys, mu, x, expected):
    path = _marked_document(tmp_path, mu, x)
    start = time.perf_counter()
    code, out, err = run(capsys, "classify", "--point", path)
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK and err == ""
    got = json.loads(out)
    assert got["verdict"] == "degenerate" and got["resolved"] == "wobbly"
    assert got["reduced_chain"] == ["degenerate", "very_stable"]
    assert expected.items() <= got.items()
    # exactly one of: a verified witness, or radicands of which none is a square
    assert ("witness" in got) != ("witness_radicands" in got)
    if "witness" in got:
        assert _verified(mu, x, got["witness"])
    else:
        assert all(scalar_from_json(s).sqrt() is None for s in got["witness_radicands"])
    # the closed form takes well under a second; the search it replaced took 23 s
    assert elapsed < 5.0


@pytest.mark.parametrize("error", ["AssertionError", "RootFindingError"])
def test_internal_errors_exit_70_with_one_json_line(capsys, monkeypatch, error):
    import quadric_gaudin.cli as cli
    from quadric_gaudin.unipoly import RootFindingError

    exc = {"AssertionError": AssertionError("planted"),
           "RootFindingError": RootFindingError("planted", [])}[error]

    def boom(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_sample", boom)
    code, out, err = run(capsys, "sample")
    assert code == EXIT_INTERNAL and out == ""
    assert json.loads(err) == {"error": "internal", "type": error, "detail": "planted"}


def test_float_bracket_tolerance_scales_with_the_terms(capsys):
    # mu_1 = 4 and mu_2 = 3 are close and max |y| = 28.7: the bracket's terms
    # are large, so an absolute 1e-9 rejected this correct point
    code, out, _ = run(capsys, "verify", "--mode", "float", "--n", "8", "--trials", "1",
                       "--seed", "536532812438", "--skip-operators")
    assert code == EXIT_OK
    checks = {d["check"]: d["pass"] for d in map(json.loads, out.strip().splitlines()) if "check" in d}
    assert checks["poisson-bracket"] is True


@pytest.mark.parametrize("n, seed", [(12, 2), (10, 482133599175), (9, 131020212994)])
def test_float_hecke_checks_hold_where_coefficients_grow(capsys, n, seed):
    # the Hecke coefficients grow like prod |mu|; these correct points used
    # to fail trace-squared-identity and orthomodel
    code, out, _ = run(capsys, "verify", "--mode", "float", "--n", str(n), "--trials", "1",
                       "--seed", str(seed), "--skip-operators")
    assert code == EXIT_OK
    checks = {d["check"]: d["pass"] for d in map(json.loads, out.strip().splitlines()) if "check" in d}
    assert checks and all(checks.values()), checks


def test_float_fallback_draw_is_reported(capsys, monkeypatch):
    from quadric_gaudin import cli

    # scaling y keeps its constraints but puts max |y| above 40 on every draw
    sample_y = cli.sample_point_y
    monkeypatch.setattr(cli, "sample_point_y", lambda *a, **k: [1e3 * v for v in sample_y(*a, **k)])
    code, out, err = run(capsys, "sample", "--mode", "float", "--n", "6", "--trials", "1", "--seed", "3")
    assert code == EXIT_OK and len(out.strip().splitlines()) == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1
    warning = json.loads(lines[0])
    assert warning["warning"] == "ill-conditioned float draw"
    assert warning["seed"] == 3 and warning["attempts"] == 64 and warning["max_abs_y"] > 40.0
    # a well-conditioned draw says nothing
    monkeypatch.undo()
    code, _, err = run(capsys, "sample", "--mode", "float", "--n", "6", "--trials", "1", "--seed", "3")
    assert code == EXIT_OK and err == ""


@pytest.mark.parametrize("n, seed", [(12, 7), (14, 13), (14, 15)])
def test_classify_accepts_accurate_roots_of_large_factors(capsys, n, seed):
    # squarefree factors with large roots (one near 141 at N = 12, seed 7):
    # accurate roots leave residuals at the rounding level of Horner's rule,
    # far above tol * max|c_k|, and the root finder used to reject them
    code, out, err = run(capsys, "classify", "--n", str(n), "--trials", "1", "--seed", str(seed))
    assert code == EXIT_OK, err
    (line,) = out.strip().splitlines()
    assert json.loads(line)["verdict"] in ("very_stable", "wobbly", "degenerate")
