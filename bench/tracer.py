"""Per-layer call accounting for resolvendlab, installed from outside the package.

Every public module-level function of each layer module, and the named
methods below, is replaced by a wrapper that counts calls, the self time of
each call (its span minus the spans of traced calls made inside it) and the
exceptions that leave it.  Spans are folded into per-function totals as they
close, so memory stays flat however many calls a run makes.

A wrapper is installed under every name a call site looks up: the defining
module, every other package module that imported the function by name, the
package namespace, module-level dicts that hold it (``suites.SUITES``) and
class-body aliases such as ``__radd__ = __add__``.
"""

from __future__ import annotations

import importlib
from time import perf_counter

LAYERS = (
    "numutil",
    "abelian",
    "cyclotomic",
    "padic",
    "groupring",
    "stickelberger",
    "gauss",
    "wildsym",
    "ramify",
    "suites",
    "cli",
)

# layer -> (class, {method: metric name}); aliases of a method share its name
METHODS = {
    "cyclotomic": (
        "CycloElement",
        {
            "__add__": "add",
            "__mul__": "mul",
            "from_terms": "from_terms",
            "inverse": "inverse",
            "__eq__": "eq",
        },
    ),
    "groupring": ("GroupRingElement", {"__mul__": "ring_mul"}),
    "padic": ("PadicCycloElement", {"__mul__": "mul", "__add__": "add"}),
}

# Functions reported one by one; every other traced call still counts
# toward its layer's totals.
REPORTED = {
    "cyclotomic": ("add", "mul", "from_terms", "inverse", "eq"),
    "groupring": (
        "transform",
        "inverse_transform",
        "ring_mul",
        "resolvend",
        "is_unit",
        "unit_inverse",
        "reduced_equal",
        "unit_pair_check",
    ),
    "gauss": (
        "gauss_sum",
        "gauss_valuation",
        "verify_translation",
        "character_sum_identity",
        "power_sum_S",
        "backend_coherence",
    ),
    "padic": ("mul", "add", "pi_valuation", "teichmuller", "embed_cyclo"),
    "stickelberger": ("stickelberger_map", "pairing", "in_S", "kappa_twist"),
    "abelian": ("char_exponent", "element_order", "dual_enumerate"),
}

# lru_cache'd functions whose hit ratio is read at the end of a run
CACHES = {
    "numutil": (
        "divisor_list",
        "euler_phi",
        "is_prime",
        "least_primitive_root",
        "discrete_log_table",
    ),
    "cyclotomic": ("cyclotomic_polynomial", "_phi_tail", "_reduction_rows"),
    "gauss": ("_gauss_cyclo_exponent", "_gauss_padic"),
    "padic": ("_teichmuller_powers",),
}

# per-function work counters: "<layer>.<fn>" -> metric suffix
WORK = {"cyclotomic.mul": "coeffs", "cyclotomic.from_terms": "terms"}

_CALLS, _SELF, _ERRORS, _WORK = range(4)


class Tracer:
    """Holds the per-function totals; ``install`` patches the package."""

    def __init__(self, clock=perf_counter):
        self.stats = {}  # "<layer>.<fn>" -> [calls, self_s, errors, work]
        self._stack = [0.0]  # child-span time of each open span; [0] is the root
        self._clock = clock

    def _wrap(self, key, fn, work=None):
        stat = self.stats.setdefault(key, [0, 0.0, 0, 0])
        stack = self._stack
        clock = self._clock

        def traced(*args, **kwargs):
            if work == "terms":  # from_terms(cls, conductor, terms)
                if len(args) > 2:
                    args = args[:2] + (_counting(args[2], stat),) + args[3:]
                else:
                    kwargs["terms"] = _counting(kwargs["terms"], stat)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count each exception once, at the innermost traced call
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    stat[_ERRORS] += 1
                raise
            finally:
                span = clock() - t0
                stat[_CALLS] += 1
                stat[_SELF] += span - stack.pop()
                stack[-1] += span
            if work == "coeffs" and hasattr(result, "coeffs"):
                stat[_WORK] += len(result.coeffs)
            return result

        return traced

    def install(self):
        """Patch resolvendlab in place."""
        pkg = importlib.import_module("resolvendlab")
        modules = {
            layer: importlib.import_module("resolvendlab." + layer) for layer in LAYERS
        }
        self.caches = {
            name: getattr(modules[layer], name, None)
            for layer, names in CACHES.items()
            for name in names
        }
        wrappers = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                key = "%s.%s" % (layer, name)
                wrappers[id(obj)] = self._wrap(key, obj, WORK.get(key))
        for ns in [pkg, *modules.values()]:
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    setattr(ns, name, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in wrappers:
                            obj[k] = wrappers[id(v)]
        for layer, (cls_name, methods) in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            body = dict(vars(cls))
            for method, metric in methods.items():
                key = "%s.%s" % (layer, metric)
                raw = body[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(key, raw.__func__, WORK.get(key)))
                else:
                    wrapped = self._wrap(key, raw, WORK.get(key))
                for attr, value in body.items():
                    if value is raw:
                        setattr(cls, attr, wrapped)

    def cache_ratios(self):
        """cache.<fn>.hit_ratio for each cached function (0 when unused)."""
        out = {}
        for name, fn in self.caches.items():
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            lookups = info.hits + info.misses if info else 0
            out[name] = info.hits / lookups if lookups else 0.0
        return out

    def totals(self):
        """{key: {"calls", "self_s", "errors", "work"}} for every traced key."""
        return {
            key: {
                "calls": s[_CALLS],
                "self_s": s[_SELF],
                "errors": s[_ERRORS],
                "work": s[_WORK],
            }
            for key, s in self.stats.items()
        }


def _counting(terms, stat):
    for term in terms:
        stat[_WORK] += 1
        yield term
