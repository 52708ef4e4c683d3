"""Command-line front end: seeded sampling, verification sweeps, classification.

Reports are JSON lines; identical configuration (including seed) produces
byte-identical output.  Exit codes: 0 all checks pass, 2 verification
failure, 64 usage error, 70 internal failure (one JSON error line on
stderr).  Trials run one after another, in trial order.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from fractions import Fraction

from .scalars import as_complex, gr, negligible, total
from .phase import (
    Pencil,
    PhasePoint,
    bracket_mass,
    poisson_bracket,
    sample_pencil_point,
    sample_phase_point,
    sample_point_x,
    sample_point_y,
)
from .serialize import dumps, point_from_json, point_to_json, scalar_to_json
from .unipoly import RootFindingError
from .verystable import WitnessSearchError

EXIT_OK = 0
EXIT_VERIFICATION = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="qgaudin", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--n", type=int, default=5, help="number of marked points N (>= 5)")
        sp.add_argument("--mu", type=str, default=None,
                        help="comma-separated rational marked points; omit for seeded random pencils")
        sp.add_argument("--mode", choices=("exact", "float"), default="exact")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--trials", type=int, default=3)
        sp.add_argument("--tol", type=float, default=1e-9)
        sp.add_argument("--out", type=str, default=None, help="write the report here instead of stdout")

    ps = sub.add_parser("sample", help="emit seeded constrained phase points")
    common(ps)

    pv = sub.add_parser("verify", help="run the cross-module verification suites")
    common(pv)
    pv.add_argument("--dmax", type=int, default=None, help="monomial degree cap for the operator suite")
    pv.add_argument("--skip-operators", action="store_true")
    pv.add_argument("--inject-fault", choices=("delta-sign",), default=None,
                    help="deliberately corrupt one relation (harness self-test)")

    pc = sub.add_parser("classify", help="very-stable / wobbly classification")
    common(pc)
    pc.add_argument("--point", type=str, default=None, help="JSON file with a phase point document")
    pc.add_argument("--csv", type=str, default=None, help="also write a CSV sweep of the verdicts")

    pd = sub.add_parser("diffops-verify", help="operator relation suites only")
    common(pd)
    pd.add_argument("--dmax", type=int, default=None)

    po = sub.add_parser("orthomodel-verify", help="pencil-model identity suite only")
    common(po)
    po.add_argument("--point", type=str, default=None, help="JSON file with a phase point document")
    return p


def _parse_mu(text: str, mode: str):
    vals = [Fraction(tok) for tok in text.split(",")]
    if mode == "exact":
        return [gr(v) for v in vals]
    return [complex(v) for v in vals]


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _trial_point(args, trial: int) -> PhasePoint:
    seed = args.seed + trial
    if args.mu is not None:
        mu = _parse_mu(args.mu, args.mode)
        pencil = Pencil(mu)
        x = sample_point_x(pencil, seed, mode=args.mode)
        y = sample_point_y(pencil, x, seed ^ 0x5BD1E995, mode=args.mode)
        return PhasePoint(pencil, x, y, tol=args.tol)
    if args.mode == "exact":
        return sample_phase_point(args.n, seed)
    # float mode solves the x-constraints directly, so any well-separated
    # pencil works; draw distinct small integers and guard against
    # ill-conditioned pivot solves (blown-up y entries)
    import random as _random

    rng = _random.Random(seed)
    span = max(args.n + 2, 12)
    attempts = 64
    for attempt in range(attempts):
        fp = Pencil([complex(m) for m in rng.sample(range(-span, span + 1), args.n)])
        x = sample_point_x(fp, seed + (attempt << 16), mode="float")
        y = sample_point_y(fp, x, seed ^ 0x5BD1E995 ^ (attempt << 16), mode="float")
        max_y, min_x = max(abs(v) for v in y), min(abs(v) for v in x[:2])
        if max_y <= 40.0 and min_x >= 0.05:
            return PhasePoint(fp, x, y, tol=args.tol)
    # every draw was ill-conditioned: keep the last one, but say so
    sys.stderr.write(dumps({"warning": "ill-conditioned float draw", "seed": seed,
                            "attempts": attempts, "max_abs_y": max_y, "min_abs_x12": min_x}) + "\n")
    return PhasePoint(fp, x, y, tol=args.tol)


def cmd_sample(args) -> int:
    if args.n < 5:
        raise _UsageError("N must be at least 5")
    if args.trials < 1:
        raise _UsageError("trials must be positive")
    lines = []
    for trial in range(args.trials):
        pt = _trial_point(args, trial)
        doc = point_to_json(pt)
        doc["trial"] = trial
        doc["constraint_residuals"] = [scalar_to_json(r) for r in pt.constraint_residuals()]
        lines.append(dumps(doc))
    _emit(lines, args.out)
    return EXIT_OK


def _verify_one_point(pt: PhasePoint, tol: float, fault: str | None):
    """Per-point relation checks; returns (name, ok, detail) triples."""
    from .higgs import (
        hamiltonians,
        hecke_transform,
        off_pole_samples,
        reduced_tr_phi_squared,
        build_phi,
    )
    from .orthomodel import (
        rank_and_kernel_of_A,
        skew_adjoint_defect,
        trivial_subbundle_probe,
        verify_equivalence,
    )

    results = []
    N = pt.pencil.N
    exact = pt.exact

    brackets_ok = True
    for i, j in itertools.combinations(range(N), 2):
        b = poisson_bracket(pt, i, j)
        if fault == "delta-sign":
            b = b + 1
        scale = 1.0 if exact else max(1.0, bracket_mass(pt, i, j))
        if not negligible(b, tol, scale):
            brackets_ok = False
            results.append(("poisson-bracket", False, f"{{f_{i + 1}, f_{j + 1}}} != 0"))
            break
    if brackets_ok:
        results.append(("poisson-bracket", True, ""))

    f = hamiltonians(pt)
    mu = pt.pencil.mu
    mom = [
        total(f),
        total(m * fi for m, fi in zip(mu, f)),
        total(m * m * fi for m, fi in zip(mu, f)),
    ]
    results.append(("hamiltonian-moments", all(negligible(v, tol) for v in mom), ""))

    triple = hecke_transform(pt)
    rq = reduced_tr_phi_squared(pt, check_samples=False)
    pd = pt.pencil.vanishing_poly()
    spectral = triple.spectral()
    iden = spectral + pd * rq.h
    scale = 1.0
    if not exact:
        # backward-stable scale: pre-cancellation coefficient mass of the terms
        mass = (
            triple.b.coeff_scale() ** 2
            + triple.a.coeff_scale() * triple.c.coeff_scale()
            + pd.coeff_scale() * rq.h.coeff_scale()
        ) * (pt.pencil.N + 1)
        scale = max(1.0, mass)
    hecke_ok = all(negligible(c, tol, scale) for c in iden.coeffs)
    degs_ok = (
        triple.c.degree <= pt.pencil.n
        and triple.b.degree <= pt.pencil.n + 1
        and triple.a.degree <= pt.pencil.n + 2
    )
    results.append(("hecke-identity", hecke_ok and degs_ok, ""))

    phi = build_phi(pt)
    zs = off_pole_samples(pt.pencil, 2)
    tr_ok = True
    for z in zs:
        a = spectral(z) + spectral(z)
        b = pd(z) * pd(z) * phi.trace_squared_at(z)
        scale = 1.0
        if not exact:
            # pre-cancellation masses of both sides: |pd(z)|^2 times the
            # uncancelled residue mass of Phi, and the Horner mass of
            # 2(b^2 + ac), whose coefficients grow like prod |mu|
            mass = sum(
                (abs(as_complex(pt.x[i])) ** 2 + abs(as_complex(pt.y[i])) ** 2)
                / abs(as_complex(z) - as_complex(pt.pencil.mu[i]))
                for i in range(N)
            )
            hecke_mass = triple.b.mass(z) ** 2 + triple.a.mass(z) * triple.c.mass(z)
            scale = max(1.0, abs(as_complex(pd(z))) ** 2 * mass**2, 2 * hecke_mass)
        if not negligible(a - b, tol, scale):
            tr_ok = False
    results.append(("trace-squared-identity", tr_ok, ""))

    z = zs[0]
    defect = skew_adjoint_defect(pt, z)
    skew_ok = all(negligible(v, tol) for row in defect.rows for v in row)
    rank, _ = rank_and_kernel_of_A(pt, z, tol=tol)
    probe = trivial_subbundle_probe(pt)
    eq = verify_equivalence(pt, zs)
    results.append(
        ("orthomodel", skew_ok and rank <= 2 and probe.both_vanish and eq.passed, "")
    )
    return results


def cmd_verify(args) -> int:
    if args.n < 5:
        raise _UsageError("N must be at least 5")
    lines = []
    failures = []
    for trial in range(args.trials):
        pt = _trial_point(args, trial)
        for name, ok, detail in _verify_one_point(pt, args.tol, args.inject_fault):
            lines.append(dumps({"check": name, "trial": trial, "pass": ok, "detail": detail}))
            if not ok:
                failures.append((name, trial, detail))

    if not args.skip_operators:
        for rep in _operator_reports(args, symbol=False):
            lines.append(_report_line(rep))
            if not rep.passed:
                failures.append((rep.name, -1, rep.first_counterexample))

    summary = {
        "summary": "ok" if not failures else "failed",
        "failures": [f"{name} (trial {trial}): {detail}" for name, trial, detail in failures],
    }
    lines.append(dumps(summary))
    _emit(lines, args.out)
    return EXIT_OK if not failures else EXIT_VERIFICATION


def _operator_reports(args, symbol: bool) -> list:
    """The operator suites on the --mu pencil (default mu = 0..N-1) up to --dmax;
    symbol adds the symbol-pairing suite.  dmax None keeps each suite's default."""
    from .diffops import (
        verify_commutation,
        verify_delta_q1,
        verify_descent_suite,
        verify_kohno_drinfeld,
        verify_symbol_pairing,
    )

    mu = _parse_mu(args.mu, "exact") if args.mu is not None else [gr(k) for k in range(args.n)]
    pencil = Pencil(mu)
    reports = verify_kohno_drinfeld(args.n, args.dmax)
    reports.append(verify_commutation(args.n, pencil, args.dmax))
    reports.append(verify_descent_suite(args.n, pencil, args.dmax))
    reports.append(verify_delta_q1(pencil))
    if symbol:
        reports.append(verify_symbol_pairing(pencil, args.dmax))
    return reports


def _report_line(rep) -> str:
    return dumps(
        {
            "check": rep.name,
            "pass": rep.passed,
            "cases": rep.cases_checked,
            "detail": rep.first_counterexample or "",
        }
    )


def cmd_classify(args) -> int:
    import csv as csv_mod
    import json

    from .verystable import classify, nilpotent_witness

    lines = []
    rows = []

    def classify_x(pencil, x, trial):
        verdict = classify(list(x), pencil)
        doc = {
            "trial": trial,
            "verdict": verdict.tag,
            "resolved": verdict.resolved_tag,
            "roots": [[scalar_to_json(complex(r)), m] for r, m in verdict.finite_roots],
            "infinity_multiplicity": verdict.infinity_multiplicity,
            "reduced_chain": verdict.chain(),
        }
        if verdict.zero_indices:
            doc["zero_indices"] = list(verdict.zero_indices)
        wr = nilpotent_witness(list(x), pencil)
        if wr.witness is not None:
            doc["witness"] = [scalar_to_json(v) for v in wr.witness]
        doc["kernel_dim"] = wr.kernel_dim
        rows.append(
            {
                "trial": trial,
                "verdict": verdict.resolved_tag,
                "n_distinct_roots": len(verdict.finite_roots)
                + (1 if verdict.infinity_multiplicity else 0),
                "witness": wr.witness is not None,
            }
        )
        return dumps(doc)

    if args.point is not None:
        with open(args.point) as fh:
            pt = point_from_json(json.load(fh))
        if not pt.exact:
            raise _UsageError("classification requires an exact point document")
        lines.append(classify_x(pt.pencil, pt.x, 0))
    else:
        for trial in range(args.trials):
            seed = args.seed + trial
            if args.mu is not None:
                pencil = Pencil(_parse_mu(args.mu, "exact"))
                x = sample_point_x(pencil, seed, mode="exact")
            else:
                pencil, x = sample_pencil_point(args.n, seed)
            lines.append(classify_x(pencil, x, trial))

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv_mod.DictWriter(
                fh, fieldnames=["trial", "verdict", "n_distinct_roots", "witness"]
            )
            writer.writeheader()
            writer.writerows(rows)
    _emit(lines, args.out)
    return EXIT_OK


def cmd_diffops_verify(args) -> int:
    reports = _operator_reports(args, symbol=True)
    lines = [_report_line(rep) for rep in reports]
    ok = all(rep.passed for rep in reports)
    lines.append(dumps({"summary": "ok" if ok else "failed"}))
    _emit(lines, args.out)
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_orthomodel_verify(args) -> int:
    import json

    from .higgs import off_pole_samples
    from .orthomodel import (
        build_A,
        rank_and_kernel_of_A,
        skew_adjoint_defect,
        trivial_subbundle_probe,
        verify_equivalence,
    )

    lines = []
    failures = 0
    for trial in range(args.trials):
        if args.point is not None:
            with open(args.point) as fh:
                pt = point_from_json(json.load(fh))
        else:
            pt = _trial_point(args, trial)
        zs = off_pole_samples(pt.pencil, 3)
        worst = 0.0
        skew_ok = ax_ok = rank_ok = True
        for z in zs:
            defect = [v for row in skew_adjoint_defect(pt, z).rows for v in row]
            ax = build_A(pt, z).matvec(list(pt.x))
            skew_ok = skew_ok and all(negligible(v, args.tol) for v in defect)
            ax_ok = ax_ok and all(negligible(v, args.tol, 10.0) for v in ax)
            if not pt.exact:
                worst = max(worst, *(abs(as_complex(v)) for v in defect + ax))
            rank, _ = rank_and_kernel_of_A(pt, z, tol=args.tol)
            rank_ok = rank_ok and rank <= 2
        probe = trivial_subbundle_probe(pt)
        eq = verify_equivalence(pt, zs)
        doc = {
            "trial": trial,
            "skew_adjoint": skew_ok,
            "kernel_contains_x": ax_ok,
            "rank_at_most_2": rank_ok,
            "subbundle_probe": probe.both_vanish,
            "phi_equivalence": eq.passed,
        }
        if not pt.exact:
            doc["worst_residual"] = worst
        if not all(v for k, v in doc.items() if isinstance(v, bool)):
            failures += 1
        lines.append(dumps(doc))
        if args.point is not None:
            break
    lines.append(dumps({"summary": "ok" if failures == 0 else "failed"}))
    _emit(lines, args.out)
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sample":
            return cmd_sample(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "diffops-verify":
            return cmd_diffops_verify(args)
        if args.command == "orthomodel-verify":
            return cmd_orthomodel_verify(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as e:
        sys.stderr.write(f"usage error: {e}\n")
        return EXIT_USAGE
    except (ValueError, OSError) as e:
        sys.stderr.write(f"usage error: {e}\n")
        return EXIT_USAGE
    except (WitnessSearchError, RootFindingError, AssertionError) as e:
        sys.stderr.write(dumps({"error": "internal", "type": type(e).__name__, "detail": str(e)}) + "\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
