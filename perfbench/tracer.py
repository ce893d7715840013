"""Per-layer tracer for the quasilie benchmark.

The layers are the package's modules: trees, abelian, lie, treegroups, eta,
quadratic and cli.  Each layer is timed from outside: the tracer replaces the
bindings through which other modules (and the benchmark) call into a layer
with thin wrappers that open a span.  Nothing in the package is edited.

* Modules bind names with ``from .x import y``, so a function is replaced in
  every module namespace that holds it, under whatever name it is bound.
* A module object imported whole (``cli`` does ``from . import abelian``) is
  replaced by a proxy that hands out the wrappers.
* ``quasilie.eta`` is shadowed by the function ``eta`` re-exported from the
  package, so modules are looked up through ``importlib``/``sys.modules``.
* Calls inside trees, lie, treegroups and quadratic stay unwrapped: the
  recursive canonicalisation in trees would otherwise pay a wrapper per node.
  abelian and eta are split into several categories, so the functions named
  in ``Layer.internal`` are also replaced in their own module, and the
  abelian methods in ``METHODS`` are replaced on their classes.
* Trivial accessors (``IntMatrix.column``, ``FpAbelianGroup.index``, ...) are
  left alone; their time counts to the caller.

A span's self time is its duration minus the spans it directly encloses.  A
call opens no span when the innermost open span has the same category, or
when that span is *inclusive* and of the same layer: ``normal_form`` (hashing
a group element) and map application then count all the abelian work they
trigger.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

LAYERS = ("trees", "abelian", "lie", "treegroups", "eta", "quadratic", "cli")


@dataclass(frozen=True)
class Layer:
    default: str                                   # category of unlisted functions
    overrides: dict = field(default_factory=dict)  # function name -> category
    internal: frozenset = frozenset()              # also replaced in own module


_ABELIAN_SPLIT = {
    "relation_divisors": "abelian.structure", "snf": "abelian.structure",
    "express_in_basis": "abelian.express", "hom_analysis": "abelian.kernel",
    "exact_at": "abelian.exact",
}
_ETA_MAPS = ("eta_prime", "eta", "eta_tilde", "eta_infinity",
             "eta_prime_ambient", "eta_vector", "beta_hom", "_sq_tensor_vector",
             "odd_left_map", "dtilde_left_map", "dtilde_to_d", "dprime_to_d")

SPEC = {
    "trees": Layer("trees.enum", {
        "canonical_rooted": "trees.canon", "canonical_unrooted": "trees.canon",
        "canonical_unrooted_of": "trees.canon", "inner_product": "trees.canon",
        "parse_tree": "trees.parse", "parse_unrooted": "trees.parse"}),
    # pullback is also imported late, from inside lie.d_infinity
    "abelian": Layer("abelian.other", _ABELIAN_SPLIT, frozenset(
        ("relation_divisors", "express_in_basis", "hom_analysis", "pullback"))),
    "lie": Layer("lie.build"),
    "treegroups": Layer("treegroups.build", internal=frozenset({"delta"})),
    "eta": Layer("eta.maps", {"verify": "eta.claims", "verify_all": "eta.claims"},
                 frozenset(_ETA_MAPS)),
    "quadratic": Layer("quadratic.forms",
                       {"bridge_T_infinity": "quadratic.bridge"}),
    "cli": Layer("cli.emit"),
}

_LATTICE = "abelian.lattice"
_OTHER = "abelian.other"
METHODS = {
    "IntMatrix": {"__init__": "abelian.convert",
                  "from_columns": "abelian.convert",
                  "sparse_columns": "abelian.convert",
                  "mul": _OTHER, "hstack": _OTHER},
    "Lattice": dict.fromkeys(("__init__", "add", "contains", "reduce",
                              "canonicalize", "basis", "equals"), _LATTICE),
    "AugmentedLattice": dict.fromkeys(("__init__", "add_pair", "kernel_basis",
                                       "solve"), _LATTICE),
    "FpAbelianGroup": {"normal_form": "abelian.normal_form",
                       **dict.fromkeys(("structure", "relation_lattice",
                                        "element", "with_extra_relations"),
                                       _OTHER)},
    "AbelianHom": {"__init__": "abelian.hom_check",
                   "__call__": "abelian.apply", "apply_vector": "abelian.apply",
                   **dict.fromkeys(("from_columns", "compose", "add", "scale",
                                    "equals", "preimage_vector",
                                    "solve_preimage", "_augmented",
                                    "image_lattice", "kernel_lattice_basis"),
                                   _OTHER)},
    "GroupElement": dict.fromkeys(("__add__", "__sub__", "__neg__", "__rmul__",
                                   "__eq__", "__hash__", "is_zero"), _OTHER),
}
INCLUSIVE = frozenset({"abelian.normal_form", "abelian.apply"})

# Per-layer metrics reported by a traced run: name -> unit.
CLAIMS = ("framing_factorization", "lemma_cd", "master_diagram_1",
          "master_diagram_2", "tau_even", "tau_odd", "thm31_i", "thm31_ii",
          "thm31_iii", "thm31_iv", "thm31_v", "thm31_vi")
_TIMES = ("trees.enum", "trees.canon", "trees.parse", "lie.build",
          "treegroups.build", "abelian.structure", "abelian.convert",
          "abelian.express", "abelian.kernel", "abelian.exact",
          "abelian.lattice", "abelian.hom_check", "abelian.normal_form",
          "abelian.apply", "abelian.other", "eta.maps", "quadratic.bridge",
          "cli.emit")
_COUNTS = ("trees.canon_calls", "abelian.dense_cells", "abelian.express_calls",
           "abelian.lattice_adds", "abelian.snf_calls", "abelian.max_gens",
           "abelian.max_relators", "abelian.relator_nnz", "cache.hits",
           "cache.misses")
PER_LAYER = {
    **{f"{c}_s": "s" for c in _TIMES},
    "eta.claims_s": "s",
    **{f"eta.claim.{c}_s": "s" for c in CLAIMS},
    "cli.import_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **dict.fromkeys(_COUNTS, "count"),
    "trace.overhead_s": "s",
}


class _LayerProxy:
    """Stand-in for a layer module that hands out the wrapped functions."""

    __slots__ = ("_module", "_replace")

    def __init__(self, module, replace):
        object.__setattr__(self, "_module", module)
        object.__setattr__(self, "_replace", replace)

    def __getattr__(self, name):
        obj = getattr(self._module, name)
        hit = self._replace.get(id(obj))
        return hit[1] if hit is not None and hit[0] is obj else obj


class Tracer:
    """Spans and counters for one process; install() starts recording."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self._replace = {}      # id(original) -> (original, wrapper)
        self._caches = []

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn, layer, cat, hook=None):
        stack, self_s, perf = self._stack, self.self_s, time.perf_counter
        inclusive = cat in INCLUSIVE

        def wrapper(*args, **kwargs):
            if stack:
                top = stack[-1]
                if top[0] == cat or (top[2] and top[1] == layer):
                    out = fn(*args, **kwargs)
                    if hook is not None:
                        hook(args, out)
                    return out
            frame = [cat, layer, inclusive, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                self_s[cat] += dt - frame[3]
                if stack:
                    stack[-1][3] += dt
            if hook is not None:
                hook(args, out)
            return out

        return functools.update_wrapper(wrapper, fn)

    def wrap_generator(self, fn, layer, cat):
        """Time each step of a generator; the consumer's work between steps
        belongs to the consumer."""
        step = self.wrap(next, layer, cat)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        return functools.update_wrapper(wrapper, fn)

    def _counter(self, name):
        counts = self.counts

        def hook(args, out):
            counts[name] += 1
        return hook

    def _hooks(self):
        counts = self.counts

        def cells(args, out):
            m = args[0]
            counts["abelian.dense_cells"] += m.rows * m.cols

        def smith(args, out):
            counts["abelian.snf_calls"] += 1
            if len(args) < 2 or not isinstance(args[1], (list, tuple)):
                return
            ngens, cols = args[0], args[1]
            counts["abelian.max_gens"] = max(counts["abelian.max_gens"], ngens)
            counts["abelian.max_relators"] = max(
                counts["abelian.max_relators"], len(cols))
            counts["abelian.relator_nnz"] += sum(
                len(c) if isinstance(c, dict) else sum(1 for v in c if v)
                for c in cols)

        return {
            ("trees", "canonical_rooted"): self._counter("trees.canon_calls"),
            ("trees", "canonical_unrooted"): self._counter("trees.canon_calls"),
            ("trees", "inner_product"): self._counter("trees.canon_calls"),
            ("abelian", "relation_divisors"): smith,
            ("abelian", "snf"): self._counter("abelian.snf_calls"),
            ("abelian", "express_in_basis"):
                self._counter("abelian.express_calls"),
            ("IntMatrix", "__init__"): cells,
            ("Lattice", "add"): self._counter("abelian.lattice_adds"),
        }

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every call into each layer; returns proxies by layer name."""
        mods = {n: importlib.import_module(f"quasilie.{n}") for n in LAYERS}
        hooks = self._hooks()
        seen = set()
        for mod in mods.values():
            for obj in vars(mod).values():
                if hasattr(obj, "cache_info") and id(obj) not in seen:
                    seen.add(id(obj))
                    self._caches.append(obj)

        for layer, mod in mods.items():
            spec = SPEC[layer]
            for name, obj in list(vars(mod).items()):
                if (isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                cat = spec.overrides.get(name, spec.default)
                if inspect.isgeneratorfunction(obj):
                    w = self.wrap_generator(obj, layer, cat)
                else:
                    w = self.wrap(obj, layer, cat, hooks.get((layer, name)))
                self._replace[id(obj)] = (obj, w)
                if name in spec.internal:
                    setattr(mod, name, w)

        eta = mods["eta"]
        for claim, fn in list(getattr(eta, "_CLAIMS", {}).items()):
            eta._CLAIMS[claim] = self.wrap(fn, "eta", f"eta.claim.{claim}")

        abelian = mods["abelian"]
        for cls_name, methods in METHODS.items():
            cls = getattr(abelian, cls_name, None)
            for name, cat in methods.items():
                raw = None if cls is None else cls.__dict__.get(name)
                if raw is not None:
                    setattr(cls, name, self._wrap_attr(
                        cls, name, raw, cat, hooks.get((cls_name, name))))

        owner = {id(m): m for m in mods.values()}
        package = importlib.import_module("quasilie")
        for mod in (*mods.values(), package):
            for name, obj in list(vars(mod).items()):
                hit = self._replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    if obj.__module__ != mod.__name__:
                        setattr(mod, name, hit[1])
                elif (id(obj) in owner and obj is not mod
                      and mod is not package):
                    setattr(mod, name, _LayerProxy(obj, self._replace))
        return {n: _LayerProxy(m, self._replace) for n, m in mods.items()}

    def _wrap_attr(self, cls, name, raw, cat, hook):
        if isinstance(raw, cached_property):
            new = cached_property(self.wrap(raw.func, "abelian", cat, hook))
            new.__set_name__(cls, name)
            return new
        if isinstance(raw, property):
            return property(self.wrap(raw.fget, "abelian", cat, hook))
        if isinstance(raw, classmethod):
            return classmethod(self.wrap(raw.__func__, "abelian", cat, hook))
        return self.wrap(raw, "abelian", cat, hook)

    def wrapped(self, fn):
        """The wrapper installed for an original function."""
        hit = self._replace.get(id(fn))
        return hit[1] if hit is not None and hit[0] is fn else fn

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer values so far (without cli.import_s and the overhead)."""
        s, out = self.self_s, {}
        for cat in _TIMES:
            out[f"{cat}_s"] = s.get(cat, 0.0)
        out["eta.claims_s"] = sum(v for c, v in s.items()
                                  if c.startswith("eta.claim"))
        for c in CLAIMS:
            out[f"eta.claim.{c}_s"] = s.get(f"eta.claim.{c}", 0.0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for c, v in s.items() if c.split(".", 1)[0] == layer)
        for name in _COUNTS:
            out[name] = self.counts.get(name, 0)
        for cache in self._caches:
            info = cache.cache_info()
            out["cache.hits"] += info.hits
            out["cache.misses"] += info.misses
        return out
