"""Span tracing around screwgen's public layer entry points.

Every traced callable is replaced, for the duration of ``instrument``, by a
wrapper that records a span (name, start, end, parent) while a root span is
open.  Module-level functions are wrapped in every module that binds them
(``screwgen.pipeline.egg_solve`` and ``screwgen.parameterization.egg_solve``
are separate bindings of one function); methods are wrapped on their class;
SciPy's sparse factorize/solve entry points are wrapped on
``scipy.sparse.linalg`` and on any screwgen module that imported them, so
the factorization metrics keep their meaning if the solver is swapped.

Spans stay in memory; ``layer_metrics`` reduces them to per-layer totals,
self times and counts.  Outside a root span the wrappers only call through,
so the benchmark's own output checks are never traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (defining module, attribute, span name); the span name's prefix before the
# first dot is the layer.
FUNCTIONS = (
    ("screwgen.parameterization", "egg_solve", "egg.solve"),
    ("screwgen.parameterization", "check_folding", "fold.check"),
    ("screwgen.parameterization", "repair_folding", "fold.repair"),
    ("screwgen.control_map", "optimize_control", "control.optimize"),
    ("screwgen.fitting", "fit_curve", "fitting.fit_curve"),
    ("screwgen.fitting", "fit_curve_adaptive", "fitting.fit_curve_adaptive"),
    ("screwgen.fitting", "match_points", "fitting.match_points"),
    ("screwgen.profiles", "booy_profile", "profiles.section"),
    ("screwgen.splines", "basis_matrix", "splines.basis"),
    ("screwgen.splines", "basis_ders_nonzero", "splines.basis"),
    ("scipy.sparse.linalg", "splu", "egg.factor"),
    ("scipy.sparse.linalg", "factorized", "egg.factor"),
    ("scipy.sparse.linalg", "spsolve", "egg.factor"),
)

# (defining module, class, method, span name)
METHODS = (
    ("screwgen.parameterization", "EggAssembly", "__init__", "egg.assembly_build"),
    ("screwgen.parameterization", "EggAssembly", "residual", "egg.residual"),
    ("screwgen.parameterization", "EggAssembly", "jacobian", "egg.jacobian"),
    ("screwgen.control_map", "CostEvaluator", "cost_of", "control.cost"),
    ("screwgen.control_map", "CostEvaluator", "gradient", "control.gradient"),
    ("screwgen.pipeline", "PipelineContext", "build_c_grid", "pipeline.c_grid"),
    ("screwgen.pipeline", "PipelineContext", "separator_reparams",
     "pipeline.separator_reparams"),
    ("screwgen.pipeline", "PipelineContext", "build_separator",
     "pipeline.separator"),
)

LAYERS = ("egg", "fold", "control", "pipeline", "fitting", "profiles", "splines")

# span attributes reduced by maximum; all others are summed
MAX_ATTRS = frozenset({"nnz", "unknowns"})

_ETA_FIT_SPANS = frozenset({"fitting.fit_curve", "fitting.fit_curve_adaptive"})


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "attrs")

    def __init__(self, name, start, end=None, parent=-1, root=-1, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.root = root
        self.attrs = attrs

    def to_list(self):
        return [self.name, self.start, self.end, self.parent, self.attrs]


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _open(self, name) -> Span:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        root = self.spans[parent].root if parent >= 0 else index
        span = Span(name, time.perf_counter(), parent=parent, root=root)
        self.spans.append(span)
        self._stack.append(index)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name):
        """Open a root span; wrapped calls record spans only inside one."""
        if self._stack:
            raise RuntimeError("root spans cannot nest")
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name, annotate=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(span)
                if annotate is not None:
                    span.attrs = annotate(None, exc, args, kwargs)
                raise
            tracer._close(span)
            if annotate is not None:
                span.attrs = annotate(result, None, args, kwargs)
            return result

        return functools.wraps(fn)(traced)


# ---------------------------------------------------------------------------
# span annotations: counts read from results, arguments and errors
# ---------------------------------------------------------------------------

def _egg_steps(result, exc, args, kwargs):
    """Accepted Newton steps of one solve, also when it raises."""
    if result is not None:
        return {"steps": int(result.iterations)}
    history = getattr(exc, "history", None)
    return {"steps": max(len(history) - 1, 0)} if history else None


def _factor_size(result, exc, args, kwargs):
    """Unknowns of the factorized matrix and the entries the factor stores
    for L and U.  ``SuperLU.nnz`` counts supernodal storage and is free to
    read; ``L.nnz + U.nnz`` would copy both factors on every call."""
    matrix = args[0] if args else kwargs.get("A")
    attrs = {"unknowns": int(matrix.shape[0])}
    if hasattr(result, "solve") and hasattr(result, "nnz"):
        attrs["nnz"] = int(result.nnz)
    return attrs


def _control_annotator(optimize):
    """Iterations of one control-map optimization and whether it stopped at
    the iteration cap (the call's ``max_iter`` or the function default)."""
    signature = inspect.signature(optimize)
    default_cap = signature.parameters["max_iter"].default

    def annotate(result, exc, args, kwargs):
        if result is None:
            return None
        bound = signature.bind_partial(*args, **kwargs).arguments
        cap = bound.get("max_iter", default_cap)
        iterations = int(result.iterations)
        return {"iterations": iterations, "cap_hits": int(iterations >= cap)}
    return annotate


_ANNOTATIONS = {"egg.solve": lambda fn: _egg_steps,
                "egg.factor": lambda fn: _factor_size,
                "control.optimize": _control_annotator}


def _plan():
    """(owner, attribute, original, span name) for every binding to wrap,
    plus the names that the program no longer defines."""
    plan, missing = [], []
    screwgen_modules = [m for name, m in sorted(sys.modules.items())
                        if name == "screwgen" or name.startswith("screwgen.")]
    for module_name, attr, span_name in FUNCTIONS:
        home = importlib.import_module(module_name)
        original = vars(home).get(attr)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        owners = [home] + [m for m in screwgen_modules
                           if m is not home and vars(m).get(attr) is original]
        plan.extend((owner, attr, original, span_name) for owner in owners)
    for module_name, cls_name, attr, span_name in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        original = vars(cls).get(attr) if cls is not None else None
        if original is None:
            missing.append(f"{module_name}.{cls_name}.{attr}")
            continue
        plan.append((cls, attr, original, span_name))
    return plan, missing


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every traced binding for the duration of the block and restore
    the originals afterwards, also when the block raises."""
    plan, tracer.missing = _plan()
    restore = []
    try:
        for owner, attr, original, span_name in plan:
            make = _ANNOTATIONS.get(span_name)
            annotate = make(original) if make is not None else None
            setattr(owner, attr, tracer.wrap(original, span_name, annotate))
            restore.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def wrapper_overhead_s(calls: int = 20000) -> float:
    """Measured cost of one recorded span over a bare call, in seconds."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap(noop, "calibration")
    with tracer.root("calibration"):
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
    return max((t1 - t0) - (t2 - t1), 0.0) / calls


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for a, b in sorted((spans[c].start, spans[c].end) for c in children[i]):
            a, b = max(a, cursor), min(b, span.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(span.end - span.start - covered)
    return out


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def root_stats(spans) -> dict[int, dict[str, float]]:
    """Raw per-root accumulators keyed by root span index.

    Keys: ``n:<span>`` calls, ``t:<span>`` time of the outermost spans of
    that name, ``total:<layer>`` time of the outermost spans of the layer,
    ``self:<layer>`` self time of the layer, ``<span>.<attr>`` annotations,
    ``eta_fit`` curve-fit time inside separator builds and
    ``line_search_evals`` residual evaluations inside Newton solves beyond
    the first of each solve.
    """
    selfs = self_times(spans)
    ancestors: list[frozenset] = []
    stats: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, span in enumerate(spans):
        if span.parent >= 0:
            up = spans[span.parent]
            anc = ancestors[span.parent] | {up.name}
        else:
            anc = frozenset()
        ancestors.append(anc)
        acc = stats[span.root]
        name, layer = span.name, _layer(span.name)
        dur = span.end - span.start
        acc["n:" + name] += 1
        if name not in anc:
            acc["t:" + name] += dur
        if not any(_layer(a) == layer for a in anc):
            acc["total:" + layer] += dur
            if name in _ETA_FIT_SPANS and "pipeline.separator" in anc:
                acc["eta_fit"] += dur
        acc["self:" + layer] += selfs[i]
        if name == "egg.residual" and "egg.solve" in anc:
            acc["line_search_evals"] += 1
        if name == "egg.solve":
            acc["line_search_evals"] -= 1
        for key, value in (span.attrs or {}).items():
            k = f"{name}.{key}"
            acc[k] = max(acc[k], value) if key in MAX_ATTRS else acc[k] + value
    return stats


# metric name -> (unit, accumulator key)
LAYER_METRICS = {
    "egg.solves": ("count", "n:egg.solve"),
    "egg.solve_s": ("s", "t:egg.solve"),
    "egg.newton_steps": ("count", "egg.solve.steps"),
    "egg.line_search_evals": ("count", "line_search_evals"),
    "egg.residual_s": ("s", "t:egg.residual"),
    "egg.jacobian_s": ("s", "t:egg.jacobian"),
    "egg.assembly_builds": ("count", "n:egg.assembly_build"),
    "egg.assembly_build_s": ("s", "t:egg.assembly_build"),
    "egg.factor_calls": ("count", "n:egg.factor"),
    "egg.factor_s": ("s", "t:egg.factor"),
    "egg.lu_nnz_max": ("count", "egg.factor.nnz"),
    "egg.unknowns_max": ("count", "egg.factor.unknowns"),
    "fold.check_calls": ("count", "n:fold.check"),
    "fold.check_s": ("s", "t:fold.check"),
    "fold.repair_calls": ("count", "n:fold.repair"),
    "fold.repair_s": ("s", "t:fold.repair"),
    "control.optimize_s": ("s", "t:control.optimize"),
    "control.iterations": ("count", "control.optimize.iterations"),
    "control.iter_cap_hits": ("count", "control.optimize.cap_hits"),
    "control.cost_calls": ("count", "n:control.cost"),
    "control.cost_s": ("s", "t:control.cost"),
    "control.gradient_calls": ("count", "n:control.gradient"),
    "control.gradient_s": ("s", "t:control.gradient"),
    "pipeline.c_grid_s": ("s", "t:pipeline.c_grid"),
    "pipeline.separator_reparams_s": ("s", "t:pipeline.separator_reparams"),
    "pipeline.eta_fit_s": ("s", "eta_fit"),
    "pipeline.separator_s": ("s", "t:pipeline.separator"),
    "fitting.fit_curve_calls": ("count", "n:fitting.fit_curve"),
    "fitting.fit_curve_s": ("s", "t:fitting.fit_curve"),
    "fitting.match_points_s": ("s", "t:fitting.match_points"),
    "profiles.section_s": ("s", "t:profiles.section"),
    "splines.basis_calls": ("count", "n:splines.basis"),
    "splines.basis_s": ("s", "t:splines.basis"),
}
for _layer_name in LAYERS:
    LAYER_METRICS[f"{_layer_name}.total_s"] = ("s", "total:" + _layer_name)
    LAYER_METRICS[f"{_layer_name}.self_s"] = ("s", "self:" + _layer_name)
del _layer_name


def _is_max(key: str) -> bool:
    return key.rsplit(".", 1)[-1] in MAX_ATTRS


def _combine(key, setup_acc, pass_accs):
    """One set-up plus the median pass: sums add, maxima take the max."""
    per_pass = [max((acc.get(key, 0.0) for acc in accs), default=0.0)
                if _is_max(key) else sum(acc.get(key, 0.0) for acc in accs)
                for accs in pass_accs]
    middle = statistics.median(per_pass) if per_pass else 0.0
    if _is_max(key):
        return max([middle] + [acc.get(key, 0.0) for acc in setup_acc])
    return middle + sum(acc.get(key, 0.0) for acc in setup_acc)


def layer_metrics(tracer: Tracer, stats, setup_roots, passes,
                  overhead_per_span):
    """Per-layer metrics for one traced set-up plus the median pass.

    ``stats`` is ``root_stats(tracer.spans)``; ``setup_roots`` are root span
    indices of context construction; ``passes`` lists, per pass, the root
    span indices of its angles.  Returns ``{name: (value, unit)}``.
    """
    setup_acc = [stats[r] for r in setup_roots]
    pass_accs = [[stats[r] for r in roots] for roots in passes]
    out = {name: (_combine(key, setup_acc, pass_accs), unit)
           for name, (unit, key) in LAYER_METRICS.items()}
    spans = tracer.spans
    per_root = defaultdict(int)
    for span in spans:
        per_root[span.root] += 1
    pass_spans = [sum(per_root[r] for r in roots) for roots in passes]
    pass_wall = [sum(spans[r].end - spans[r].start for r in roots)
                 for roots in passes]
    median_spans = statistics.median(pass_spans) if pass_spans else 0
    median_wall = statistics.median(pass_wall) if pass_wall else 0.0
    out["trace.spans"] = (sum(per_root[r] for r in setup_roots) + median_spans,
                          "count")
    out["trace.pass_s"] = (median_wall, "s")
    out["trace.overhead_frac"] = (
        overhead_per_span * median_spans / median_wall if median_wall else 0.0,
        "ratio")
    out["trace.missing_bindings"] = (len(tracer.missing), "count")
    return out


def angle_counts(stats, root: int) -> dict:
    """Counts of one angle that must repeat exactly between runs."""
    acc = stats.get(root, {})
    return {"newton_steps": int(acc.get("egg.solve.steps", 0)),
            "factor_calls": int(acc.get("n:egg.factor", 0)),
            "lu_nnz_max": int(acc.get("egg.factor.nnz", 0)),
            "control_iterations": int(acc.get("control.optimize.iterations", 0))}
