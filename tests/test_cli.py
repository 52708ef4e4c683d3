import json
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


def test_worker_pool_is_deterministic(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QG_THREADS", "4")
    _, out1, _ = run(capsys, "sample", "--n", "5", "--trials", "4", "--seed", "5")
    monkeypatch.setenv("QG_THREADS", "1")
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


def test_exhausted_witness_search_is_internal_failure(tmp_path, capsys):
    # wobbly via a double root at the deleted marked point 0: the last-resort
    # search over small combinations finds no witness, which is not a usage error
    from quadric_gaudin.phase import Pencil, PhasePoint
    from quadric_gaudin.scalars import ZERO

    sixth = Fraction(1, 6)
    pencil = Pencil([gr(m) for m in (-11, -7, 0, 7, 11)])
    x = [gr(sixth), gr(0, sixth), ZERO, gr(0, sixth), gr(sixth)]
    path = tmp_path / "marked.json"
    path.write_text(dumps(point_to_json(PhasePoint(pencil, x, [ZERO] * 5))))
    code, out, err = run(capsys, "classify", "--point", str(path))
    assert code == EXIT_INTERNAL == 70
    assert out == ""
    (line,) = err.strip().splitlines()
    doc = json.loads(line)
    assert doc["error"] == "internal" and doc["type"] == "WitnessSearchError"
    assert "no witness" in doc["detail"]


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
