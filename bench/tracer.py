"""Spans and counters wrapped around the program from outside.

Spans: each public function listed in ``SPANS`` (those the CLI can call)
is replaced, wherever a module of the package holds a reference to it, by a
wrapper that records (name, start, end, parent span, item).  ``cli`` binds ``poisson_bracket``
and the samplers at import time, so replacing only the defining module's
attribute would miss those calls.  Spans stay in memory and are written
once, when the run ends.

Counters: ``GaussianRational``, ``Polynomial`` and ``MultiPoly`` operators
are called millions of times; a span on each would swamp the span times, so
they are counted in a pass of their own.

Helpers called once per scalar or per monomial (``apply_X``, ``mat_mul``,
``sum_product``, ``gr``, ...) carry no span: their time is self time of the
span that called them.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

PKG = "quadric_gaudin"

SPANS = {
    "phase": ["sample_phase_point", "sample_pencil_point", "sample_isotropic_x",
              "sample_point_x", "sample_point_y", "poisson_bracket"],
    "higgs": ["hamiltonians", "hecke_transform", "reduced_tr_phi_squared", "build_phi",
              "is_nilpotent", "off_pole_samples", "HiggsField.trace_squared_at"],
    "unipoly": ["poly_gcd", "squarefree_factorization", "sylvester_matrix", "resultant",
                "roots", "clustered_roots"],
    "multipoly": ["reduce_mod_quadrics", "quadric", "weighted_quadric"],
    "linalg": ["rref", "rank_kernel"],
    "sov": ["auxiliary_poly"],
    # _verified_nilpotent is private, but it is the one place a witness
    # candidate is checked, so its calls are the witness attempts.
    "verystable": ["classify", "witness_system", "is_gauge_trivial", "nilpotent_witness",
                   "_verified_nilpotent"],
    "diffops": ["verify_kohno_drinfeld", "verify_commutation", "verify_descent_suite",
                "verify_descent", "verify_delta_q1", "verify_symbol_pairing"],
    "orthomodel": ["build_A", "skew_adjoint_defect", "lift_vz", "verify_equivalence",
                   "trivial_subbundle_probe", "rank_and_kernel_of_A"],
    "serialize": ["scalar_to_json", "scalar_from_json", "point_to_json", "point_from_json",
                  "dumps"],
    "cli": ["main"],
}

#: span-time metrics: self time summed over the named spans ("layer." = all
#: spans of that layer), speed-corrected, mean per item
SELF_TIME = {
    "unipoly.gcd_ms": ["unipoly.poly_gcd"],
    "unipoly.resultant_ms": ["unipoly.resultant", "unipoly.sylvester_matrix"],
    "unipoly.roots_ms": ["unipoly.roots", "unipoly.clustered_roots"],
    "unipoly.self_ms": ["unipoly."],
    "multipoly.reduce_ms": ["multipoly.reduce_mod_quadrics"],
    "multipoly.self_ms": ["multipoly."],
    "linalg.rref_ms": ["linalg.rref"],
    "phase.sample_ms": ["phase.sample_phase_point", "phase.sample_pencil_point",
                        "phase.sample_isotropic_x", "phase.sample_point_x",
                        "phase.sample_point_y"],
    "phase.bracket_ms": ["phase.poisson_bracket"],
    "higgs.hamiltonians_ms": ["higgs.hamiltonians"],
    "higgs.hecke_ms": ["higgs.hecke_transform"],
    "higgs.trace_ms": ["higgs.HiggsField.trace_squared_at"],
    "sov.auxiliary_ms": ["sov.auxiliary_poly"],
    "verystable.classify_ms": ["verystable.classify"],
    "verystable.witness_ms": ["verystable.nilpotent_witness", "verystable.witness_system",
                              "verystable.is_gauge_trivial",
                              "verystable._verified_nilpotent"],
    "diffops.kd_ms": ["diffops.verify_kohno_drinfeld"],
    "diffops.commutation_ms": ["diffops.verify_commutation"],
    "diffops.descent_ms": ["diffops.verify_descent_suite", "diffops.verify_descent"],
    "diffops.symbol_ms": ["diffops.verify_symbol_pairing"],
    "orthomodel.ms": ["orthomodel."],
    "serialize.ms": ["serialize."],
    "cli.self_ms": ["cli.main"],
}

#: span-count metrics, mean per item
CALLS = {
    "linalg.rref_count": "linalg.rref",
    "phase.bracket_count": "phase.poisson_bracket",
    "verystable.witness_attempts": "verystable._verified_nilpotent",
}

#: operator counters: counter key -> (class, methods)
COUNTED = {
    "scalars.mul_count": ("scalars.GaussianRational", ["__mul__", "__rmul__"]),
    "scalars.div_count": ("scalars.GaussianRational", ["__truediv__", "__rtruediv__"]),
    "scalars.addsub_count": ("scalars.GaussianRational",
                             ["__add__", "__radd__", "__sub__", "__rsub__"]),
    "unipoly.mul_count": ("unipoly.Polynomial", ["__mul__"]),
    "unipoly.divmod_count": ("unipoly.Polynomial", ["divmod"]),
    "multipoly.op_count": ("multipoly.MultiPoly",
                           ["__add__", "__sub__", "__neg__", "__mul__", "scale",
                            "mul_monomial", "diff", "evaluate"]),
}


def _resolve(dotted: str):
    mod_name, _, rest = dotted.partition(".")
    obj = sys.modules[f"{PKG}.{mod_name}"]
    owner = obj
    for part in rest.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, rest.split(".")[-1], obj


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.item = -1
        self.counts: Counter = Counter()
        self._undo: list = []

    # -- installing --------------------------------------------------------

    def _replace(self, owner, attr, orig, new):
        if isinstance(owner, type):
            self._undo.append((owner, attr, orig))
            setattr(owner, attr, new)
            return
        for name, mod in list(sys.modules.items()):
            if name == PKG or name.startswith(PKG + "."):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, new)

    def install_spans(self):
        for layer, names in SPANS.items():
            for fn in names:
                owner, attr, orig = _resolve(f"{layer}.{fn}")
                self._replace(owner, attr, orig, self._span(f"{layer}.{fn}", orig))

    def install_counters(self):
        scalar = _resolve("scalars.GaussianRational")[2]
        for key, (cls_path, methods) in COUNTED.items():
            cls = _resolve(cls_path)[2]
            for m in methods:
                orig = cls.__dict__[m]
                new = self._count(key, orig, scalar if cls is scalar else None)
                self._replace(cls, m, orig, new)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, orig):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.item)

        wrapper.__wrapped__ = orig
        return wrapper

    def _count(self, key, orig, scalar_cls):
        counts = self.counts
        if scalar_cls is None:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return orig(*args, **kwargs)
            return wrapper

        def scalar_wrapper(a, b):
            counts[key] += 1
            r = orig(a, b)
            if r.__class__ is scalar_cls:
                re, im = r.re, r.im
                bits = max(re.numerator.bit_length(), re.denominator.bit_length(),
                           im.numerator.bit_length(), im.denominator.bit_length())
                if bits > counts["scalars.max_coeff_bits"]:
                    counts["scalars.max_coeff_bits"] = bits
            return r
        return scalar_wrapper


# -- turning spans into per-layer metrics ----------------------------------------


def _matches(name, patterns):
    return any(name == p or (p.endswith(".") and name.startswith(p)) for p in patterns)


def span_metrics(spans, factors: dict, cases: dict):
    """Per-layer span metrics, mean per item.

    ``spans``: (name, start, end, parent, item) tuples; ``factors``: the
    speed correction r0 / r_i per item; ``cases``: diffops cases per item.
    """
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, item in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    totals = Counter()
    calls = Counter()
    diffops_total = 0.0
    for k, (name, t0, t1, parent, item) in enumerate(spans):
        scale = factors[item] * 1e3
        own = (t1 - t0 - child_time[k]) * scale
        for metric, patterns in SELF_TIME.items():
            if _matches(name, patterns):
                totals[metric] += own
        calls[name] += 1
        if name.startswith("diffops.verify_") and (
                parent < 0 or not spans[parent][0].startswith("diffops.")):
            diffops_total += (t1 - t0) * scale
    n = len(factors)
    out = {m: totals[m] / n for m in SELF_TIME}
    for metric, name in CALLS.items():
        out[metric] = calls[name] / n
    total_cases = sum(cases.values())
    out["diffops.cases"] = total_cases / n
    out["diffops.us_per_case"] = diffops_total * 1e3 / total_cases if total_cases else 0.0
    return out
