"""Command-line front end: seeded sampling, verification sweeps, classification.

Reports are JSON lines; identical configuration (including seed) produces
byte-identical output.  Exit codes: 0 all checks pass, 2 verification
failure, 64 usage error, 70 internal failure (one JSON error line on
stderr).  Trials run one after another, in trial order.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import random
import sys
from fractions import Fraction

from .diffops import (
    verify_commutation,
    verify_delta_q1,
    verify_descent_suite,
    verify_kohno_drinfeld,
    verify_symbol_pairing,
)
from .higgs import build_phi, off_pole_samples, reduced_tr_phi_squared
from .orthomodel import (
    build_A,
    phi_equivalence,
    rank_and_kernel_of_A,
    skew_adjoint_defect,
    trivial_subbundle_probe,
    verify_equivalence,
)
from .scalars import NonFiniteError, as_complex, dot, gr, negligible, total
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
from .verystable import nilpotent_witness

EXIT_OK = 0
EXIT_VERIFICATION = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _at_least(low: int):
    """argparse type: an int no smaller than low."""

    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _marked_points(text: str) -> list:
    """argparse type: comma-separated rationals, as exact scalars."""
    try:
        return [gr(Fraction(tok)) for tok in text.split(",")]
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    # option groups shared by the subcommands, each given only what it reads
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--n", type=_at_least(5), default=None,
                      help="number of marked points N (>= 5); default 5, or the length of --mu")
    base.add_argument("--mu", type=_marked_points, default=None,
                      help="comma-separated rational marked points; omit for seeded random pencils")
    base.add_argument("--out", type=str, default=None, help="write the report here instead of stdout")
    # None marks an option that was not given; main() fills in _DEFAULTS
    draws = argparse.ArgumentParser(add_help=False)
    draws.add_argument("--seed", type=int, default=None, help="default 0")
    draws.add_argument("--trials", type=_at_least(1), default=None, help="default 3")
    floats = argparse.ArgumentParser(add_help=False)
    floats.add_argument("--mode", choices=("exact", "float"), default=None, help="default exact")
    floats.add_argument("--tol", type=float, default=1e-9)
    dmax = argparse.ArgumentParser(add_help=False)
    dmax.add_argument("--dmax", type=_at_least(0), default=None,
                      help="monomial degree of the operator suites (default: each suite's bound)")
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--point", type=str, default=None, help="JSON file with a phase point document")

    p = _Parser(prog="qgaudin", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("sample", parents=[base, draws, floats],
                   help="emit seeded constrained phase points")
    pv = sub.add_parser("verify", parents=[base, draws, floats, dmax],
                        help="run the cross-module verification suites")
    pv.add_argument("--skip-operators", action="store_true")
    pv.add_argument("--inject-fault", choices=("delta-sign",), default=None,
                    help="deliberately corrupt one relation (harness self-test)")
    pc = sub.add_parser("classify", parents=[base, draws, point],
                        help="very-stable / wobbly classification")
    pc.add_argument("--csv", type=str, default=None, help="also write a CSV sweep of the verdicts")
    sub.add_parser("diffops-verify", parents=[base, dmax], help="operator relation suites only")
    sub.add_parser("orthomodel-verify", parents=[base, draws, floats, point],
                   help="pencil-model identity suite only")
    return p


_PARSER = build_parser()
_DEFAULTS = {"seed": 0, "trials": 3, "mode": "exact"}


def _load_point(path: str) -> PhasePoint:
    with open(path) as fh:
        return point_from_json(json.load(fh))


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _trial_points(args):
    """The seeded point of each trial.  An explicit --mu pencil is built once,
    so every trial samples from the same pencil and its one seed point."""
    if args.mu is None:
        yield from (_trial_point(args, trial) for trial in range(args.trials))
        return
    pencil = Pencil(args.mu if args.mode == "exact" else [as_complex(m) for m in args.mu])
    for seed in range(args.seed, args.seed + args.trials):
        x = sample_point_x(pencil, seed)
        yield PhasePoint(pencil, x, sample_point_y(pencil, x, seed ^ 0x5BD1E995), tol=args.tol)


def _trial_point(args, trial: int) -> PhasePoint:
    seed = args.seed + trial
    if args.mode == "exact":
        return sample_phase_point(args.n, seed)
    # float mode solves the x-constraints directly, so any well-separated
    # pencil works; draw distinct small integers and guard against
    # ill-conditioned pivot solves (blown-up y entries)
    rng = random.Random(seed)
    span = max(args.n + 2, 12)
    attempts = 64
    for attempt in range(attempts):
        fp = Pencil([complex(m) for m in rng.sample(range(-span, span + 1), args.n)])
        x = sample_point_x(fp, seed + (attempt << 16))
        y = sample_point_y(fp, x, seed ^ 0x5BD1E995 ^ (attempt << 16))
        max_y, min_x = max(abs(v) for v in y), min(abs(v) for v in x[:2])
        if max_y <= 40.0 and min_x >= 0.05:
            return PhasePoint(fp, x, y, tol=args.tol)
    # every draw was ill-conditioned: keep the last one, but say so
    sys.stderr.write(dumps({"warning": "ill-conditioned float draw", "seed": seed,
                            "attempts": attempts, "max_abs_y": max_y, "min_abs_x12": min_x}) + "\n")
    return PhasePoint(fp, x, y, tol=args.tol)


def cmd_sample(args) -> int:
    lines = []
    for trial, pt in enumerate(_trial_points(args)):
        doc = point_to_json(pt)
        doc["trial"] = trial
        doc["constraint_residuals"] = [scalar_to_json(r) for r in pt.constraint_residuals()]
        lines.append(dumps(doc))
    _emit(lines, args.out)
    return EXIT_OK


def _verify_one_point(pt: PhasePoint, tol: float, fault: str | None):
    """Per-point relation checks; returns (name, ok, detail) triples."""
    results = []
    N = pt.pencil.N
    exact = pt.exact

    for i, j in itertools.combinations(range(N), 2):
        b = poisson_bracket(pt, i, j)
        if fault == "delta-sign":
            b = b + 1
        scale = 1.0 if exact else max(1.0, bracket_mass(pt, i, j))
        if not negligible(b, tol, scale):
            results.append(("poisson-bracket", False, f"{{f_{i + 1}, f_{j + 1}}} != 0"))
            break
    else:
        results.append(("poisson-bracket", True, ""))

    rq = reduced_tr_phi_squared(pt, check_samples=False)
    f = rq.f
    mu = pt.pencil.mu
    mom = [
        total(f),
        dot(mu, f),
        dot([m * m for m in mu], f),
    ]
    results.append(("hamiltonian-moments", all(negligible(v, tol) for v in mom), ""))

    # one field per point: phi_equivalence below reuses its Hecke triple and Phi(z)
    phi = build_phi(pt)
    triple = phi.hecke
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
    eq = phi_equivalence(phi, zs)
    results.append(
        ("orthomodel", skew_ok and rank <= 2 and probe.both_vanish and eq.passed, "")
    )
    return results


def cmd_verify(args) -> int:
    lines = []
    failures = []
    for trial, pt in enumerate(_trial_points(args)):
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
    symbol adds the symbol-pairing suite.  dmax None runs each suite at the
    degree where it is complete."""
    pencil = Pencil(args.mu if args.mu is not None else [gr(k) for k in range(args.n)])
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
            "complete": rep.complete,
            "detail": rep.first_counterexample or "",
        }
    )


def cmd_classify(args) -> int:
    lines = []
    rows = []

    def classify_x(pencil, x, trial):
        wr = nilpotent_witness(list(x), pencil)
        verdict = wr.verdict
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
        if wr.witness is not None:
            doc["witness"] = [scalar_to_json(v) for v in wr.witness]
        if wr.radicands:
            doc["witness_radicands"] = [scalar_to_json(v) for v in wr.radicands]
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
        pt = _load_point(args.point)
        if not pt.exact:
            raise _UsageError("classification requires an exact point document")
        lines.append(classify_x(pt.pencil, pt.x, 0))
    else:
        explicit = Pencil(args.mu) if args.mu is not None else None
        for trial in range(args.trials):
            seed = args.seed + trial
            if explicit is None:
                pencil, x = sample_pencil_point(args.n, seed)
            else:
                pencil, x = explicit, sample_point_x(explicit, seed)
            lines.append(classify_x(pencil, x, trial))

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(
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
    if args.point is not None:
        points = [_load_point(args.point)]
    else:
        points = _trial_points(args)
    lines = []
    failures = 0
    for trial, pt in enumerate(points):
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
    lines.append(dumps({"summary": "ok" if failures == 0 else "failed"}))
    _emit(lines, args.out)
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if getattr(args, "point", None) is not None:
            for name in ("n", "mu", *_DEFAULTS):
                if getattr(args, name, None) is not None:
                    raise _UsageError(f"--{name} does not apply to a --point document")
        for name, value in _DEFAULTS.items():
            if getattr(args, name, value) is None:
                setattr(args, name, value)
        if args.mu is not None:
            if args.n not in (None, len(args.mu)):
                raise _UsageError(f"--n {args.n} disagrees with the {len(args.mu)} entries of --mu")
            args.n = len(args.mu)
        elif args.n is None:
            args.n = 5
        # looked up at call time, so a replaced cmd_* is the one that runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    # NonFiniteError is a ValueError, so it must be caught first
    except (RootFindingError, AssertionError, NonFiniteError) as e:
        sys.stderr.write(dumps({"error": "internal", "type": type(e).__name__, "detail": str(e)}) + "\n")
        return EXIT_INTERNAL
    except (_UsageError, ValueError, OSError) as e:
        sys.stderr.write(f"usage error: {e}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
