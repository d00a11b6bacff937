"""Spans and counters recorded around calls into pstlab, from outside it.

``install`` rebinds each public function named in ``TARGETS`` in every
pstlab module that holds it, so internal calls such as ``scan.decide_pst`` or
``spectra.charpoly`` pass through the wrapper too.  A wrapper records one
span (name, start, end, parent) and keeps the function's ``cache_info`` and
``cache_clear``.  Spans stay in memory; ``self_times`` turns them into self
time per name once the run is over.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

MODULES = ("graphs", "polys", "spectra", "pst", "gapcert", "trees", "walk", "scan", "cli")

# span name -> (module, function).  Every span is also counted in
# "<name>.calls"; the functions with an lru_cache also get "<name>.hits".
TARGETS = {
    "trees.enumerate": ("trees", "enumerate_trees"),
    "graphs.delete_vertices": ("graphs", "delete_vertices"),
    "graphs.separating_cut_edge": ("graphs", "separating_cut_edge"),
    "graphs.load_graph_text": ("graphs", "load_graph_text"),
    "polys.charpoly": ("polys", "charpoly"),
    "polys.poly_gcd": ("polys", "poly_gcd"),
    "polys.square_free_part": ("polys", "square_free_part"),
    "polys.isolate_real_roots": ("polys", "isolate_real_roots"),
    "polys.path_sum_poly": ("polys", "path_sum_poly"),
    "spectra.vertex_deleted_charpoly": ("spectra", "vertex_deleted_charpoly"),
    "spectra.is_cospectral": ("spectra", "is_cospectral"),
    "spectra.is_strongly_cospectral": ("spectra", "is_strongly_cospectral"),
    "spectra.support_partition": ("spectra", "support_partition"),
    "spectra.signed_path_sum": ("spectra", "signed_path_sum"),
    "pst.decide_pst": ("pst", "decide_pst"),
    "pst.fit_quadratic_spectrum": ("pst", "fit_quadratic_spectrum"),
    "gapcert.certify_gap": ("gapcert", "certify_gap"),
    "gapcert.alpha_pair": ("gapcert", "alpha_pair"),
    "gapcert.merged_alphas": ("gapcert", "merged_alphas"),
    "walk.verify_certificate": ("walk", "verify_certificate"),
    "walk.amplitude": ("walk", "amplitude"),
    "scan.analyze_tree": ("scan", "analyze_tree"),
    "cli.main": ("cli", "main"),
}

# Functions that return a generator: the span consumes it, so that it covers
# the work and not only the creation of the generator.
GENERATORS = {"trees.enumerate"}
# Functions whose returned Poly feeds polys.max_coeff_bits.
POLY_RESULTS = {"polys.charpoly", "polys.poly_gcd", "polys.path_sum_poly"}
VERDICTS = ("PST", "not_strongly_cospectral", "ratio_condition_b", "parity_condition_c")


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the
    durations of its direct children.  ``spans`` holds ``[name, start, end,
    parent]`` with ``parent`` an index into ``spans`` or ``None``; children
    of one span run one after another, so their durations simply add."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for k, (name, start, end, _) in enumerate(spans):
        out[name] += end - start - child[k]
    return dict(out)


def inclusive_times(spans, prefix: str) -> dict[str, float]:
    """Total duration, children included, per span name that starts with
    prefix, keyed "<name>.s"."""
    out: dict[str, float] = defaultdict(float)
    for name, start, end, _ in spans:
        if name.startswith(prefix):
            out[name + ".s"] += end - start
    return dict(out)


def _coeff_bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_coeff_bits = 0
        self.cospectral: set = set()
        self.strong: set = set()

    # -- spans -------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        top = self.stack.pop()
        if top != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")
        self.spans[index][2] = time.perf_counter()

    def end_item(self) -> None:
        """Pair sets are per item (one query, one graph or one scan), so a
        pair seen again in a later item counts again."""
        self.counts["spectra.cospectral_pairs"] += len(self.cospectral)
        self.counts["spectra.strong_pairs"] += len(self.strong)
        self.cospectral.clear()
        self.strong.clear()

    # -- wrappers ----------------------------------------------------------
    def wrap(self, name: str, fn):
        info = getattr(fn, "cache_info", None)
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            hits = info().hits if info else 0
            try:
                result = fn(*args, **kwargs)
                if name in GENERATORS:
                    result = list(result)
            finally:
                tracer.close(index)
            tracer.observe(name, args, result, info is not None and info().hits > hits)
            return iter(result) if name in GENERATORS else result

        if info:
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def observe(self, name: str, args, result, hit: bool) -> None:
        counts = self.counts
        counts[name + ".calls"] += 1
        if hit:
            counts[name + ".hits"] += 1
        elif name in POLY_RESULTS:
            self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(result))
        if name == "trees.enumerate":
            counts["trees.count"] += len(result)
        elif name == "spectra.is_cospectral" and result:
            self.cospectral.add(args[:3])
        elif name == "spectra.is_strongly_cospectral" and result:
            self.strong.add(args[:3])
        elif name == "pst.decide_pst":
            key = "PST" if result.result == "PST" else result.failing_condition
            counts["pst.verdict." + key] += 1
        elif name == "gapcert.certify_gap" and result.hypotheses_ok:
            counts["gapcert.hypotheses_ok"] += 1

    def wrap_scan_orders(self, scan_trees, enumerate_trees):
        """Wrappers that add one inclusive span per tree order: it opens when
        scan_trees asks for the trees of order n and closes when the next
        order starts or the scan returns."""
        tracer = self

        def close_order() -> None:
            if tracer.stack and tracer.spans[tracer.stack[-1]][0].startswith("scan.order_"):
                tracer.close(tracer.stack[-1])

        def scan_wrapper(*args, **kwargs):
            try:
                return scan_trees(*args, **kwargs)
            finally:
                close_order()

        def enumerate_wrapper(n, *args, **kwargs):
            close_order()
            tracer.open(f"scan.order_{n}")
            return enumerate_trees(n, *args, **kwargs)

        return scan_wrapper, enumerate_wrapper


def _rebind(modules, original, replacement) -> None:
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every function in TARGETS wherever pstlab binds it."""
    modules = [importlib.import_module("pstlab")]
    modules += [importlib.import_module(f"pstlab.{m}") for m in MODULES]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    for name, (module, attr) in TARGETS.items():
        original = getattr(by_name[module], attr)
        _rebind(modules, original, tracer.wrap(name, original))
    # scan_trees looks up enumerate_trees in its own module, so the order
    # spans see every order and enclose the trees.enumerate span.
    scan = by_name["scan"]
    original = scan.scan_trees
    scan_wrapper, scan.enumerate_trees = tracer.wrap_scan_orders(
        original, scan.enumerate_trees
    )
    _rebind(modules, original, scan_wrapper)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced repetition: a superset of the
    per_layer list in BENCHMARK.json, which run.py reports."""
    selfs = self_times(tracer.spans)
    counts = tracer.counts
    out: dict[str, float] = {}
    for name in TARGETS:
        out[name + ".s"] = selfs.get(name, 0.0)
        calls = counts[name + ".calls"]
        out[name + ".calls"] = calls
        out[name + ".hit_ratio"] = counts[name + ".hits"] / calls if calls else 0.0
    out.update(inclusive_times(tracer.spans, "scan.order_"))
    for key in ("trees.count", "spectra.cospectral_pairs", "spectra.strong_pairs",
                "gapcert.hypotheses_ok"):
        out[key] = counts[key]
    cosp = counts["spectra.cospectral_pairs"]
    out["spectra.strong_yield"] = counts["spectra.strong_pairs"] / cosp if cosp else 0.0
    for verdict in VERDICTS:
        out["pst.verdict." + verdict] = counts["pst.verdict." + verdict]
    out["polys.max_coeff_bits"] = tracer.max_coeff_bits
    return out
