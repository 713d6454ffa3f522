"""Spans around the engine's public calls, recorded from outside the engine.

`install` wraps the functions named in LAYERS at every import site inside
the `groupoidal` package, so a call made through `from .x import f` is
timed too.  Each wrapped call records (span id, function, start, end,
parent span id) in memory; traced_cli.py writes them out when the job
ends.  Calls made more than about dim^2 times per job (`mul_sparse`,
`Scalar` arithmetic) are not wrapped, to keep the overhead small.

`layer_totals` turns a job's spans into the per-layer metrics: a span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

IMPORT_SPAN = "cli.import"


def _size(counts, args, result):
    from groupoidal import specfiles
    # The CLI never passes a catalog_dir, so the default lookup applies.
    path = specfiles.resolve_input(args[0])
    counts["specfiles.input_bytes"] += os.path.getsize(path)


def _add(metric, read):
    def count(counts, args, result):
        counts[metric] += read(args, result)
    return count


def _bump(counts, args, result):
    counts["scalars.span_calls"] += 1


def _ideal(counts, args, result):
    counts["skew_rings.dim_I"] += result.dimension
    counts["skew_rings.ideal_generators"] += result.generator_count


# (module, function or Class.method, time metric, counter or None)
LAYERS = [
    ("specfiles", "load_document", "specfiles.load_s", _size),
    ("groupoid_core", "validate_groupoid", "groupoid_core.self_s", None),
    ("groupoid_core", "enumerate_bisections", "groupoid_core.self_s", None),
    ("groupoid_core", "is_topologically_principal", "groupoid_core.self_s",
     None),
    ("inverse_semigroups", "validate_inverse_semigroup",
     "inverse_semigroups.validate_s", None),
    ("inverse_semigroups", "bisection_semigroup", "inverse_semigroups.build_s",
     _add("inverse_semigroups.order", lambda a, r: r.order)),
    ("inverse_semigroups", "natural_order", "inverse_semigroups.build_s", None),
    ("partial_actions", "validate_group_partial_action",
     "partial_actions.self_s", None),
    ("partial_actions", "validate_isg_partial_action",
     "partial_actions.self_s", None),
    ("partial_actions", "induce_algebra_action", "partial_actions.self_s",
     None),
    ("partial_actions", "is_topologically_free", "partial_actions.self_s",
     None),
    ("transformation_groupoid", "build_transformation_groupoid",
     "transformation_groupoid.build_s",
     _add("transformation_groupoid.arrows", lambda a, r: r.n_arrows)),
    ("skew_rings", "CovarianceModule.verify_associativity",
     "skew_rings.assoc_s", _add("skew_rings.dim_L", lambda a, r: a[0].dim)),
    ("skew_rings", "build_ideal", "skew_rings.ideal_s", _ideal),
    ("skew_rings", "build_quotient", "skew_rings.quotient_s", None),
    ("skew_rings", "QuotientAlgebra.verify_representative_independence",
     "skew_rings.quotient_s", None),
    ("skew_rings", "check_pregrading", "skew_rings.pregrading_s", None),
    ("scalars", "SpanTracker.add", "scalars.span_s", _bump),
    ("scalars", "SpanTracker.reduce", "scalars.span_s", _bump),
    ("scalars", "SpanTracker.contains", "scalars.span_s", _bump),
    ("steinberg_algebra", "SteinbergAlgebra.mul_basis",
     "steinberg_algebra.mul_s", None),
    ("steinberg_algebra", "SteinbergAlgebra.mul_vectors",
     "steinberg_algebra.mul_s", None),
    ("steinberg_algebra", "convolve", "steinberg_algebra.mul_s", None),
    ("steinberg_algebra", "disjoint_decomposition",
     "steinberg_algebra.mul_s", None),
    ("isomorphisms", "AlgebraMap.certify_homomorphism",
     "isomorphisms.certify_s",
     _add("isomorphisms.certify_pairs", lambda a, r: a[0].domain.dim ** 2)),
    ("isomorphisms", "AlgebraMap.certify_injective", "isomorphisms.certify_s",
     None),
    ("isomorphisms", "AlgebraMap.certify_surjective",
     "isomorphisms.certify_s", None),
    ("isomorphisms", "AlgebraMap.certify_diagonal", "isomorphisms.certify_s",
     None),
    ("isomorphisms", "AlgebraMap.certify_all", "isomorphisms.certify_s",
     None),
    ("isomorphisms", "AlgebraMap.inverse", "isomorphisms.certify_s", None),
    ("isomorphisms", "AlgebraMap.compose", "isomorphisms.certify_s", None),
    ("isomorphisms", "search_groupoid_isomorphism", "isomorphisms.search_s",
     None),
    ("isomorphisms", "search_orbit_equivalence", "isomorphisms.search_s",
     None),
    ("isomorphisms", "verify_phi_left_inverse", "isomorphisms.phi_s", None),
    ("isomorphisms", "verify_phi_additive", "isomorphisms.phi_s", None),
]

SPAN_METRIC = {f"{mod}.{name}": metric for mod, name, metric, _ in LAYERS}
SPAN_METRIC[IMPORT_SPAN] = "cli.import_s"
TIME_METRICS = sorted(set(SPAN_METRIC.values()))
COUNT_METRICS = ["specfiles.input_bytes", "inverse_semigroups.order",
                 "transformation_groupoid.arrows", "skew_rings.dim_L",
                 "skew_rings.dim_I", "skew_rings.ideal_generators",
                 "scalars.span_calls", "isomorphisms.certify_pairs"]


class Tracer:
    """Closed spans and counters of one job, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self._stack = [None]
        self._next_id = 0

    def record(self, name, start, end):
        """A root span timed by the caller."""
        self._next_id += 1
        self.spans.append((self._next_id, name, start, end, None))

    def wrap(self, fn, name, count=None):
        clock, stack, spans, counts = (time.perf_counter, self._stack,
                                       self.spans, self.counts)

        def traced(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if count is not None:
                count(counts, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every LAYERS entry at its definition and at each module of
        the package that imported it by name.  Call after the package is
        imported."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "groupoidal"
                                         or n.startswith("groupoidal."))]
        for mod_name, qualname, metric, count in LAYERS:
            module = importlib.import_module(f"groupoidal.{mod_name}")
            span = f"{mod_name}.{qualname}"
            if "." in qualname:
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(cls.__dict__[method], span,
                                               count))
                continue
            original = getattr(module, qualname)
            wrapped = self.wrap(original, span, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)


def self_times(spans):
    """Self time per span id: duration minus the children's durations.
    A child whose parent never closed (a job stopped at its limit) is
    treated as a root."""
    duration = {sid: end - start for sid, _, start, end, _ in spans}
    own = dict(duration)
    for sid, _, _, _, parent in spans:
        if parent in own:
            own[parent] -= duration[sid]
    return own


def layer_totals(spans):
    """Self time summed per time metric, from one job's spans."""
    own = self_times(spans)
    totals = dict.fromkeys(TIME_METRICS, 0.0)
    for sid, name, _, _, _ in spans:
        totals[SPAN_METRIC[name]] += own[sid]
    return totals
