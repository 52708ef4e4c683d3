"""JSON encodings: exact scalars as strings, float scalars as [re, im] pairs,
polynomials as ascending coefficient arrays."""

from __future__ import annotations

import cmath
import json

from .phase import Pencil, PhasePoint
from .scalars import as_complex, format_scalar, is_exact, parse_scalar
from .unipoly import Polynomial


def scalar_to_json(v):
    if is_exact(v):
        return format_scalar(v)
    c = as_complex(v)
    return [c.real, c.imag]


def scalar_from_json(v):
    """An exact string or a finite [re, im] pair; anything else is a usage error."""
    if isinstance(v, str):
        return parse_scalar(v)
    if isinstance(v, (list, tuple)) and len(v) == 2 and all(type(c) in (int, float) for c in v):
        if cmath.isfinite(z := complex(v[0], v[1])):
            return z
    raise ValueError(f"malformed scalar {v!r}")


def poly_to_json(p: Polynomial):
    return [scalar_to_json(c) for c in p.coeffs]


def point_to_json(pt: PhasePoint) -> dict:
    return {
        "N": pt.pencil.N,
        "mu": [scalar_to_json(m) for m in pt.pencil.mu],
        "x": [scalar_to_json(v) for v in pt.x],
        "y": [scalar_to_json(v) for v in pt.y],
        "mode": pt.mode,
    }


def point_from_json(doc: dict) -> PhasePoint:
    if not isinstance(doc, dict) or not all(isinstance(doc.get(k), list) for k in ("mu", "x", "y")):
        raise ValueError('a point document is an object with "mu", "x" and "y" lists')
    mu = [scalar_from_json(m) for m in doc["mu"]]
    x = [scalar_from_json(v) for v in doc["x"]]
    y = [scalar_from_json(v) for v in doc["y"]]
    pencil = Pencil(mu)
    return PhasePoint(pencil, x, y)


def hecke_to_json(triple) -> dict:
    return {
        "a": poly_to_json(triple.a),
        "b": poly_to_json(triple.b),
        "c": poly_to_json(triple.c),
    }


def reduced_to_json(rq) -> dict:
    return {"f": [scalar_to_json(v) for v in rq.f], "h": poly_to_json(rq.h)}


def separated_to_json(sep) -> dict:
    return {
        "p": poly_to_json(sep.p),
        "finite_roots": [[scalar_to_json(complex(r)), m] for r, m in sep.finite_roots],
        "infinity_multiplicity": sep.infinity_multiplicity,
        "lambdas": [scalar_to_json(complex(l)) for l in sep.lambdas],
    }


def dumps(obj) -> str:
    """Deterministic one-line JSON (sorted keys, compact separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
