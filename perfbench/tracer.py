"""Layer spans recorded from outside the package.

`install` replaces the public functions of each module (and the module
attributes other modules call them through) with wrappers that record a
span per call: name, start, end and parent span.  Spans are kept in
compact arrays and written out by `Tracer.dump`.  Self time is the span's
duration minus the time covered by its child spans; it is accumulated as
the spans close.  Counters are bumped at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._child = [0.0]
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self._undo: list = []

    def bump(self, counter: str, k: int = 1):
        self.counts[counter] = self.counts.get(counter, 0) + k

    def see(self, counter: str, key):
        self.distinct.setdefault(counter, set()).add(key)

    def wrap(self, name, fn, before=None, after=None):
        """`fn` recording a span called `name`; hooks see the arguments."""
        ident = self._ids.setdefault(name, len(self._ids))
        if ident == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack, child = self._stack, self._child
        starts, ends, parents, names = self.start, self.end, self.parent, self.name
        self_s, total_s = self.self_s, self.total_s
        self_s.setdefault(name, 0.0)
        total_s.setdefault(name, 0.0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            idx = len(starts)
            parents.append(stack[-1])
            names.append(ident)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                inner = child.pop()
                dur = t1 - t0
                starts[idx] = t0
                ends[idx] = t1
                self_s[name] += dur - inner
                total_s[name] += dur
                child[-1] += dur
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return traced

    def count_calls(self, counter, fn):
        """`fn` bumping `counter` per call, without a span (hot paths)."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[counter] = self.counts.get(counter, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ---------------------------------------------------------

    def patch_function(self, module, attr, replacement_of):
        """Rebind `module.attr` wherever a schubert module holds it."""
        original = getattr(module, attr)
        wrapped = replacement_of(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "schubert" and not name.startswith("schubert."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attr, replacement_of):
        raw = cls.__dict__[attr]
        self._undo.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(replacement_of(raw.__func__)))
        else:
            setattr(cls, attr, replacement_of(raw))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output -----------------------------------------------------------

    def dump(self, path):
        """Write every span (columns) and the aggregates as JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        base = min(self.start) if self.start else 0.0
        obj = {
            "names": self.names,
            "spans": {
                "name": list(self.name),
                "parent": list(self.parent),
                "start_us": [round((t - base) * 1e6, 1) for t in self.start],
                "end_us": [round((t - base) * 1e6, 1) for t in self.end],
            },
            "self_s": self.self_s,
            "total_s": self.total_s,
            "counts": self.counts,
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }
        with open(path, "w") as fh:
            json.dump(obj, fh, separators=(",", ":"))


# ----------------------------------------------------------- layer map


def _layer_sum(tracer, prefix):
    return sum(v for k, v in tracer.self_s.items() if k.startswith(prefix))


def _entries(tracer, args, kwargs):
    m = args[0] if args else None
    if m:
        tracer.bump("intlinalg.entries_in", len(m) * len(m[0]))


def install(tracer: Tracer, schubert):
    """Wrap the public layer boundaries of an imported `schubert` package."""
    weyl = schubert.weyl
    tri = schubert.triangular
    chars = schubert.characteristics
    lin = schubert.intlinalg
    poly = schubert.intpoly
    coh = schubert.cohomology
    cli = schubert.cli
    span = tracer.wrap

    # weyl: enumeration and the disk cache
    def elements(t, table, args, kwargs):
        t.bump("weyl.elements", table.total)

    def cache_bytes(t, result, args, kwargs):
        t.bump("weyl.cache_bytes", os.path.getsize(args[1]))

    tracer.patch_function(
        weyl, "enumerate_cosets",
        lambda f: span("weyl.enumerate_cosets", f, after=elements))
    tracer.patch_method(
        weyl.CosetTable, "save_binary",
        lambda f: span("weyl.cache_write", f, after=cache_bytes))
    tracer.patch_method(
        weyl.CosetTable, "load_binary",
        lambda f: span("weyl.cache_read", f, after=elements))
    tracer.patch_method(
        weyl.WeylElement, "from_word",
        lambda f: tracer.count_calls("weyl.from_word.calls", f))

    # triangular: the operator
    def operator_in(t, args, kwargs):
        t.bump("triangular.evaluate_exponents.calls")
        t.bump("triangular.evaluate_exponents.terms_in", len(args[1]))
        t.bump("triangular.evaluate_exponents.size_sum", args[0].size)

    tracer.patch_function(
        tri, "evaluate_exponents",
        lambda f: span("triangular.evaluate_exponents", f, before=operator_in))

    # characteristics: pair products, the degree-1 path, monomials
    def pair_in(t, args, kwargs):
        table, u, v = args
        t.bump("characteristics.expand_pair.calls")
        t.see("characteristics.expand_pair.distinct", (id(table),) + tuple(sorted([u.key(), v.key()])))

    def mono_in(t, args, kwargs):
        table, classes = args
        keys = tuple(sorted(c.key() if hasattr(c, "key") else tuple(c) for c in classes))
        t.bump("characteristics.expand_class_monomial.calls")
        t.see("characteristics.expand_class_monomial.distinct", (id(table),) + keys)

    tracer.patch_function(
        chars, "expand_pair",
        lambda f: span("characteristics.expand_pair", f, before=pair_in))
    tracer.patch_function(
        chars, "expand_class_monomial",
        lambda f: span("characteristics.expand_class_monomial", f, before=mono_in))
    tracer.patch_function(
        chars, "expand_product", lambda f: span("characteristics.expand_product", f))

    # products by a level-1 class take the degree-1 (Chevalley) path; the
    # others get a span of their own so their time is not the caller's
    def multiply_vec(f):
        degree1 = span("characteristics.degree1", f)
        general = span("characteristics.multiply_vec", f)

        @functools.wraps(f)
        def dispatch(table, vec, cls):
            if cls.r == 1:
                tracer.bump("characteristics.degree1.calls")
                return degree1(table, vec, cls)
            return general(table, vec, cls)

        return dispatch

    tracer.patch_function(chars, "multiply_vec_by_class", multiply_vec)

    # intlinalg: Hermite, Smith, solving, lattices
    for attr, layer in [
        ("hermite_with_transform", "intlinalg.hermite"),
        ("kernel_basis", "intlinalg.hermite"),
        ("smith_with_transforms", "intlinalg.smith"),
        ("cokernel_structure", "intlinalg.smith"),
        ("diagonalize_with_unit_minor", "intlinalg.smith"),
        ("solve_left", "intlinalg.solve"),
        ("unimodular_inverse", "intlinalg.solve"),
    ]:
        tracer.patch_function(
            lin, attr, lambda f, layer=layer: span(layer, f, before=_entries))

    def lattice_add(t, args, kwargs):
        t.bump("intlinalg.lattice.adds")

    for attr in ("add", "__contains__", "reduce", "canonical_basis", "copy"):
        hook = lattice_add if attr == "add" else None
        tracer.patch_method(
            lin.SparseIntLattice, attr,
            lambda f, hook=hook: span("intlinalg.lattice", f, before=hook))

    # intpoly: polynomial arithmetic
    tracer.patch_function(poly, "monomial_exponents", lambda f: span("intpoly", f))
    for attr in ("__add__", "__sub__", "__mul__", "__pow__", "rename_into", "substitute"):
        tracer.patch_method(poly.IntPolynomial, attr, lambda f: span("intpoly", f))

    # cohomology: stages and helpers
    for attr in (
        "minimal_generators", "minimal_relations", "gysin_analysis",
        "structure_matrix", "relation_kernel", "graded_ideal_span", "giambelli",
    ):
        tracer.patch_function(
            coh, attr, lambda f, attr=attr: span(f"cohomology.{attr}", f))

    # cli: front end
    tracer.patch_function(cli, "load_table", lambda f: span("cli.load_table", f))
    tracer.patch_function(cli, "main", lambda f: span("cli.main", f))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced pass, named as in BENCHMARK.json."""
    s, total, c = tracer.self_s, tracer.total_s, tracer.counts
    d = {k: len(v) for k, v in tracer.distinct.items()}
    return {
        "weyl.enumerate_cosets.self_s": s["weyl.enumerate_cosets"],
        "weyl.elements": c.get("weyl.elements", 0),
        "weyl.cache_write.self_s": s["weyl.cache_write"],
        "weyl.cache_read.self_s": s["weyl.cache_read"],
        "weyl.from_word.calls": c.get("weyl.from_word.calls", 0),
        "weyl.cache_bytes": c.get("weyl.cache_bytes", 0),
        "triangular.evaluate_exponents.self_s": s["triangular.evaluate_exponents"],
        "triangular.evaluate_exponents.calls": c.get("triangular.evaluate_exponents.calls", 0),
        "triangular.evaluate_exponents.terms_in": c.get("triangular.evaluate_exponents.terms_in", 0),
        "triangular.evaluate_exponents.size_sum": c.get("triangular.evaluate_exponents.size_sum", 0),
        "characteristics.expand_pair.self_s": s["characteristics.expand_pair"],
        "characteristics.expand_pair.calls": c.get("characteristics.expand_pair.calls", 0),
        "characteristics.expand_pair.distinct": d.get("characteristics.expand_pair.distinct", 0),
        "characteristics.degree1.self_s": s["characteristics.degree1"],
        "characteristics.degree1.calls": c.get("characteristics.degree1.calls", 0),
        "characteristics.expand_class_monomial.calls": c.get("characteristics.expand_class_monomial.calls", 0),
        "characteristics.expand_class_monomial.distinct": d.get("characteristics.expand_class_monomial.distinct", 0),
        "characteristics.expand_product.self_s": s["characteristics.expand_product"],
        "intlinalg.hermite.self_s": s["intlinalg.hermite"],
        "intlinalg.smith.self_s": s["intlinalg.smith"],
        "intlinalg.solve.self_s": s["intlinalg.solve"],
        "intlinalg.lattice.self_s": s["intlinalg.lattice"],
        "intlinalg.lattice.adds": c.get("intlinalg.lattice.adds", 0),
        "intlinalg.entries_in": c.get("intlinalg.entries_in", 0),
        "intpoly.self_s": s["intpoly"],
        "cohomology.minimal_generators.s": total["cohomology.minimal_generators"],
        "cohomology.minimal_relations.s": total["cohomology.minimal_relations"],
        "cohomology.gysin_analysis.s": total["cohomology.gysin_analysis"],
        "cohomology.self_s": _layer_sum(tracer, "cohomology."),
        "cli.load_table.s": total["cli.load_table"],
        "cli.self_s": _layer_sum(tracer, "cli."),
    }
