"""Spans around calls into torsionlab's modules, for the traced run only.

Tracer.install() wraps every public function of each package module and
rebinds the wrapper in every torsionlab namespace that binds the
original (so torsionlab.cli.zeta_trace and torsionlab.zeta.zeta_trace
are both caught).  Python resolves module globals at call time, so calls
inside a module, such as check_K_vs_novikov -> compute_K, are caught too.
uninstall() puts the originals back.

A span is (name, start_ns, end_ns, parent index); spans stay in memory
until the run ends.  Size counts (term counts and coefficient bit
lengths of results) are taken after the span has closed and are
themselves recorded as "trace.sizes" spans, so they leave every layer's
self time untouched.
"""

import fnmatch
import inspect
import os
import sys
from time import perf_counter_ns

PACKAGE = "torsionlab"
LAYERS = ("cli", "fixtures", "rings", "linalg", "complexes", "zeta", "novikov", "cut", "threedim")

# per-layer time metrics: the self time of the spans whose names match
TIMES = {
    "cli.self_ms": ("cli.*",),
    "fixtures.parse_ms": ("fixtures.*",),
    "rings.series_exp_ms": ("rings.series_exp",),
    "rings.expand_series_ms": ("rings.expand_series", "rings.series_invert"),
    "rings.canonical_ms": ("rings.canonical_mod_units", "rings.unit_equivalent", "rings.frac_equal"),
    "rings.exact_div_ms": ("rings.exact_div",),
    "rings.format_ms": ("rings.format_*",),
    "rings.self_ms": ("rings.*",),
    "linalg.bareiss_ms": ("linalg.bareiss_det", "linalg.poly_rank_pivots"),
    "linalg.adjugate_ms": ("linalg.adjugate", "linalg.poly_minor"),
    "linalg.rf_ms": ("linalg.rf_*",),
    "linalg.int_ms": ("linalg.int_*",),
    "linalg.self_ms": ("linalg.*",),
    "complexes.tau_ms": ("complexes.torsion_tau", "complexes.torsion_tau_hat"),
    "complexes.validate_ms": ("complexes.validate_complex",),
    "complexes.homology_ms": ("complexes.homology_ranks", "complexes.default_homology_basis"),
    "complexes.self_ms": ("complexes.*",),
    "zeta.trace_ms": ("zeta.zeta_trace",),
    "zeta.exp_ms": ("zeta.zeta_exp",),
    "zeta.lefschetz_ms": ("zeta.zeta_lefschetz",),
    "zeta.product_ms": ("zeta.zeta_product",),
    "zeta.self_ms": ("zeta.*",),
    "novikov.tau_ms": ("novikov.tau_novikov",),
    "novikov.invariant_ms": ("novikov.invariant_I",),
    "novikov.self_ms": ("novikov.*",),
    "cut.validate_ms": ("cut.validate_cut_system",),
    "cut.assemble_ms": ("cut.assemble_boundary",),
    "cut.compute_K_ms": ("cut.compute_K",),
    "cut.check_K_ms": ("cut.check_K_vs_novikov",),
    "cut.products_ms": ("cut.tau_via_products",),
    "cut.self_ms": ("cut.*",),
    "threedim.det_ms": ("threedim.path_matrix_det",),
    "threedim.i3_ms": ("threedim.i3_coefficients",),
    "threedim.sw_check_ms": ("threedim.sw_consistency_check",),
    "threedim.self_ms": ("threedim.*",),
}

# per-layer call counts
COUNTS = {
    "rings.exact_div_calls": ("rings.exact_div",),
    "linalg.bareiss_calls": ("linalg.bareiss_det", "linalg.poly_rank_pivots"),
    "cut.compute_K_calls": ("cut.compute_K",),
}

# results of these layers are sized (terms, coefficient bits)
SIZED_LAYERS = ("rings", "linalg", "complexes")

UNITS = dict({name: "ms" for name in TIMES}, **{name: "count" for name in COUNTS})
UNITS.update({
    "fixtures.bytes_in": "bytes",
    "rings.max_terms": "terms",
    "rings.max_coeff_bits": "bits",
    "trace.overhead_frac": "fraction",
})

SIZES_SPAN = "trace.sizes"


def _walk_polys(obj, depth=0):
    """Yield the coefficient dicts inside a result: polynomials, fractions,
    truncations, torsion values and (shallow) lists of them."""
    terms = getattr(obj, "terms", None)
    if isinstance(terms, dict):
        yield terms
    elif hasattr(obj, "num") and hasattr(obj, "den"):
        yield from _walk_polys(obj.num, depth)
        yield from _walk_polys(obj.den, depth)
    elif hasattr(obj, "raw") and hasattr(obj, "canonical"):
        yield from _walk_polys(obj.raw, depth)
    elif isinstance(getattr(obj, "slices", None), dict):
        for g in obj.slices.values():
            yield g.terms
    elif isinstance(obj, (list, tuple)) and depth < 3:
        for item in obj:
            yield from _walk_polys(item, depth + 1)


def _bits(c):
    if isinstance(c, int):
        return abs(c).bit_length()
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


class Tracer:
    """Wraps torsionlab's public functions while installed; keeps spans in memory."""

    def __init__(self):
        self._originals = {}  # (module, attribute) -> original function
        self._resolve = sys.modules[PACKAGE + ".fixtures"].resolve_fixture_path
        self.reset()

    def reset(self):
        """Forget the spans and sizes recorded so far."""
        self.spans = []
        self.stack = []
        self.max_terms = self.max_coeff_bits = self.bytes_in = 0

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self):
        wrappers = {}
        for module in self._modules():
            layer = module.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ \
                        and not attr.startswith("_"):
                    wrappers[fn] = self._wrap(fn, "%s.%s" % (layer, attr), layer in SIZED_LAYERS)
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._originals[(module, attr)] = value
                    setattr(module, attr, wrappers[value])

    def uninstall(self):
        for (module, attr), fn in self._originals.items():
            setattr(module, attr, fn)
        self._originals = {}

    def _wrap(self, fn, name, sized):
        tracer = self
        is_parse = name == "fixtures.parse_fixture"

        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if sized or is_parse:
                tracer._measure(result, args, is_parse, end, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    def _measure(self, result, args, is_parse, start, parent):
        if is_parse:
            self.bytes_in += os.path.getsize(self._resolve(args[0]))
        else:
            for terms in _walk_polys(result):
                if len(terms) > self.max_terms:
                    self.max_terms = len(terms)
                for c in terms.values():
                    b = _bits(c)
                    if b > self.max_coeff_bits:
                        self.max_coeff_bits = b
        self.spans.append((SIZES_SPAN, start, perf_counter_ns(), parent))

    def self_times_ns(self):
        """{span name: summed self time}, self = duration minus child spans."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] = out.get(name, 0) + (end - start - child[i])
        return out

    def call_counts(self):
        out = {}
        for name, _, _, _ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out

    def layer_metrics(self):
        """The per-layer metrics of the spans recorded since the last reset()."""
        selfs = self.self_times_ns()
        calls = self.call_counts()
        out = {}
        for metric, patterns in TIMES.items():
            ns = sum(v for k, v in selfs.items() if any(fnmatch.fnmatchcase(k, p) for p in patterns))
            out[metric] = ns / 1e6
        for metric, names in COUNTS.items():
            out[metric] = sum(calls.get(n, 0) for n in names)
        out["fixtures.bytes_in"] = self.bytes_in
        out["rings.max_terms"] = self.max_terms
        out["rings.max_coeff_bits"] = self.max_coeff_bits
        return out

    def dump(self, path):
        """Write the spans as JSON lines: name, start_ns, end_ns, parent index."""
        with open(path, "w", encoding="ascii") as handle:
            for name, start, end, parent in self.spans:
                handle.write('["%s",%d,%d,%d]\n' % (name, start, end, parent))
