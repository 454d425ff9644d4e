"""The benchmark's workloads: inputs, the timed pass, and the correctness gates.

Each workload kind has a ``prepare(spec, seed, workdir)`` that builds the
inputs (counted as set-up) and, per stage, three steps (STAGE_STEPS):

* ``execute(schubert, spec, inputs)``, the timed stage;
* ``after(schubert, spec, inputs, out)`` or None, untimed follow-up work;
* ``check(spec, inputs, out, gate)``, which compares the outputs with
  `reference`, a module that does not import the package under test.

The package is passed in as a module, so the same code runs the real
workloads and the toy-size self-test.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import reference

# Workloads by name.  The computation is fixed by the name; the seed draws
# the CLI's product arguments and the gates' sampled probes.
SPECS = {
    "e6p2-presentation": {"kind": "presentation", "lie": "E6", "K": (2,), "up_to": 21},
    "e7p2-gysin": {"kind": "gysin", "lie": "E7", "K": (2,), "up_to": 20},
    "cli-e6t-cache": {"kind": "cli", "lie": "E6"},
}
# The same kinds at toy size, for the self-test.
TOY_SPECS = {
    "presentation": {"kind": "presentation", "lie": "F4", "K": (1,), "up_to": 15},
    "gysin": {"kind": "gysin", "lie": "F4", "K": (1,), "up_to": 15},
    "cli": {"kind": "cli", "lie": "F4"},
}
STAGES = {"presentation": ("main",), "gysin": ("main",), "cli": ("cold", "warm")}


def spec_of(name: str) -> dict:
    return SPECS.get(name) or TOY_SPECS[name]


class Gate:
    """Counts checked operations and the ones that failed or raised."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def run(self, name, fn):
        """Run a check function that returns (ok, detail); an exception fails it."""
        try:
            ok, detail = fn()
        except Exception as exc:  # a gate that raises counts as failed
            return self.check(name, False, f"raised {type(exc).__name__}: {exc}")
        return self.check(name, ok, detail)

    def guarded(self, name, fn, *args):
        """Call fn(*args); an exception counts as one failed check."""
        try:
            fn(*args)
        except Exception as exc:
            self.check(name, False, f"raised {type(exc).__name__}: {exc}")


# ------------------------------------------------------------ presentation


def _prepare_presentation(spec, seed, workdir):
    rng = random.Random(seed)
    pub = reference.PUBLISHED[(spec["lie"], spec["K"])]
    # seeded probe: a random combination of multiples of the published
    # relations, in a random degree above the top relation degree
    names = list(pub["words"])
    weights = [len(pub["words"][g]) for g in names]
    rels = [reference.parse_poly(t, names) for t in pub["relations"]]
    degree = max(pub["relation_degrees"]) + rng.randint(1, 3)
    probe = {}
    for row in reference.ideal_rows(rels, weights, degree):
        c = rng.randint(-3, 3)
        for e, v in row.items():
            probe[e] = probe.get(e, 0) + c * v
    return {"probe": {e: v for e, v in probe.items() if v}, "probe_degree": degree}


def _execute_presentation(schubert, spec, inputs):
    lt = schubert.LieType.parse(spec["lie"])
    table = schubert.enumerate_cosets(lt, set(spec["K"]))
    gens = schubert.cohomology.minimal_generators(table)
    pres = schubert.cohomology.minimal_relations(table, gens, spec["up_to"])
    return {
        "generators": [(g.name, g.degree, tuple(g.word)) for g in pres.generators],
        "ring_names": list(pres.ring.names),
        "relations": [dict(r.terms) for r in pres.relations],
        "relation_degrees": tuple(pres.relation_degrees()),
    }


def _check_presentation(spec, inputs, out, gate):
    pub = reference.PUBLISHED[(spec["lie"], spec["K"])]
    rs = reference.RootSystem(spec["lie"])
    names = list(pub["words"])
    weights = [len(pub["words"][g]) for g in names]
    gate.check(
        "generator names and degrees",
        [(n, d) for n, d, _ in out["generators"]] == [(n, 2 * w) for n, w in zip(names, weights)],
        f"got {[(n, d) for n, d, _ in out['generators']]}",
    )
    # minimal_generators may pick other classes of the same levels than the
    # published words; each must still be a representative of its level
    gate.check(
        "generator words",
        all(len(w) == d // 2 and rs.is_reduced(w) and rs.is_minimal_rep(w, spec["K"])
            for _, d, w in out["generators"]),
        "a generator word is not a representative of its level",
    )
    gate.check(
        "relation degrees",
        out["relation_degrees"] == pub["relation_degrees"],
        f"got {out['relation_degrees']}",
    )
    # computed relations, rewritten over the published variable order
    try:
        perm = [out["ring_names"].index(n) for n in names]
    except ValueError:
        gate.check("relation variables", False, f"ring {out['ring_names']}")
        return
    computed = [{tuple(e[i] for i in perm): c for e, c in r.items()} for r in out["relations"]]
    published = [reference.parse_poly(t, names) for t in pub["relations"]]

    def contains(gens, poly):
        d = reference.poly_degree(poly, weights)
        basis = reference.hermite_basis(reference.ideal_rows(gens, weights, d))
        return reference.in_span(basis, poly)

    for text, rel in zip(pub["relations"], published):
        gate.run(f"published relation in computed ideal: {text}",
                 lambda rel=rel: (contains(computed, rel), "not in the ideal"))
    for k, rel in enumerate(computed):
        gate.run(f"computed relation {k + 1} in published ideal",
                 lambda rel=rel: (contains(published, rel), "not in the ideal"))
    gate.run(f"seeded probe in degree {inputs['probe_degree']}",
             lambda: (contains(computed, inputs["probe"]), "not in the ideal"))


# ------------------------------------------------------------------ gysin


def _prepare_gysin(spec, seed, workdir):
    rng = random.Random(seed)
    levels = sorted(rng.sample(range(1, spec["up_to"] + 1), min(5, spec["up_to"])))
    return {"smith_levels": levels}


def _execute_gysin(schubert, spec, inputs):
    lt = schubert.LieType.parse(spec["lie"])
    table = schubert.enumerate_cosets(lt, set(spec["K"]))
    gy = schubert.cohomology.gysin_analysis(table, spec["K"][0], spec["up_to"])
    return {
        "levels": [[tuple(w.word) for w in level] for level in table.levels],
        "complete": table.complete,
        "matrices": gy.matrices,
        "groups": {k: (g.free_rank, tuple(g.torsion)) for k, g in {**gy.even, **gy.odd}.items()},
    }


def check_table(rs, lie, K, levels, gate):
    """The table's levels are exactly the minimal coset representatives by length."""
    expected = reference.betti(lie, K)
    sizes = [len(level) for level in levels]
    gate.check("level sizes", sizes == expected, f"got {sizes}, expected {expected}")
    bad = []
    keys = set()
    for r, level in enumerate(levels):
        for word in level:
            if len(word) != r or not rs.is_reduced(word) or not rs.is_minimal_rep(word, K):
                bad.append(word)
            keys.add(rs.key(word))
    count = sum(len(level) for level in levels)
    gate.check("representatives", not bad and len(keys) == count,
               f"{len(bad)} bad words, {count - len(keys)} repeats")


def _check_gysin(spec, inputs, out, gate):
    rs = reference.RootSystem(spec["lie"])
    node = spec["K"][0]
    levels = out["levels"]
    check_table(rs, spec["lie"], spec["K"], levels, gate)
    gate.check("table complete", out["complete"] is True)
    index = [{rs.key(w): j for j, w in enumerate(level)} for level in levels]
    top = min(spec["up_to"], len(levels) - 1)
    gate.check("matrix count", sorted(out["matrices"]) == list(range(1, top + 1)),
               f"got {sorted(out['matrices'])}")
    for r in range(1, top + 1):
        mat = out["matrices"].get(r)

        def compare(r=r, mat=mat):
            expect = [[0] * len(levels[r]) for _ in levels[r - 1]]
            for k, word in enumerate(levels[r]):
                for u_key, c in rs.chevalley_column(word, node).items():
                    j = index[r - 1].get(u_key)
                    if j is not None:
                        expect[j][k] += c
            got = [list(row) for row in mat]
            return got == expect, "entries differ from Chevalley's formula"

        gate.run(f"A_{r} against Chevalley", compare)
    for r in inputs["smith_levels"]:
        if r > top:
            continue

        def groups(r=r):
            mat = out["matrices"][r]
            ncols = len(levels[r])
            free, torsion = reference.smith_invariants(mat, ncols)
            kernel = len(levels[r - 1]) - (ncols - free)
            want = {2 * r: (free, torsion), 2 * r - 1: (kernel, ())}
            got = {k: out["groups"].get(k) for k in want}
            return got == want, f"got {got}, expected {want}"

        gate.run(f"groups of degree {2 * r - 1}, {2 * r}", groups)


# -------------------------------------------------------------------- cli


def _prepare_cli(spec, seed, workdir):
    rng = random.Random(seed)
    rs = reference.RootSystem(spec["lie"])
    word = ()
    while len(word) < 3:
        k = rng.randint(1, rs.n)
        if rs.is_reduced((k,) + word):
            word = (k,) + word
    factor = ",".join(map(str, word))
    letter = rng.randint(1, rs.n)
    cache = os.path.join(workdir, "cache")
    return {
        "seed": seed,
        "word": word,
        "letter": letter,
        "cold_argv": ["enumerate", spec["lie"], "--cache-dir", cache],
        "warm_argv": ["multiply", spec["lie"], factor, f"w{letter}", "--cache-dir", cache],
        "plain_argv": ["multiply", spec["lie"], factor, f"w{letter}"],
        "uncached_path": os.path.join(workdir, "uncached.json"),
        "cache": cache,
    }


def call_cli(schubert, argv):
    """(exit status, stdout text) of the CLI entry point called in-process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = schubert.cli.main(list(argv))
    return status, buf.getvalue()


def _execute_cold(schubert, spec, inputs):
    status, text = call_cli(schubert, inputs["cold_argv"])
    return {"status": status, "text": text}


def _after_cold(schubert, spec, inputs, out):
    """Untimed: the uncached product that the warm pass must reproduce byte for byte."""
    status, text = call_cli(schubert, inputs["plain_argv"])
    out["plain_status"] = status
    with open(inputs["uncached_path"], "w") as fh:
        fh.write(text)


def _execute_warm(schubert, spec, inputs):
    status, text = call_cli(schubert, inputs["warm_argv"])
    return {"status": status, "text": text}


def _check_cold(spec, inputs, out, gate):
    gate.check("uncached multiply exit status", out["plain_status"] == 0,
               f"status {out['plain_status']}")
    if not gate.check("enumerate exit status", out["status"] == 0, f"status {out['status']}"):
        return
    obj = json.loads(out["text"])
    n = int(spec["lie"][1:])
    levels = [[] for _ in obj["beta"]]
    for e in obj["elements"]:
        levels[e["r"]].append(tuple(e["word"]))
    sizes = [len(level) for level in levels]
    expected = reference.betti(spec["lie"], range(1, n + 1))
    gate.check("level sizes", sizes == expected, f"got {sizes}, expected {expected}")
    gate.check("count", obj["count"] == sum(expected), f"count {obj['count']}")
    gate.check("beta", obj["beta"] == sizes, "beta disagrees with the elements")
    # every level size is checked; a seeded sample of the words is checked
    # for being reduced, of its level's length and distinct
    rs = reference.RootSystem(spec["lie"])
    words = [(r, w) for r, level in enumerate(levels) for w in level]
    sample = random.Random(inputs["seed"]).sample(words, min(400, len(words)))
    bad = [w for r, w in sample if len(w) != r or not rs.is_reduced(w)]
    keys = {rs.key(w) for _, w in sample}
    gate.check("sampled words", not bad and len(keys) == len(sample),
               f"{len(bad)} bad, {len(sample) - len(keys)} repeated")
    gate.check("cache written", bool(os.listdir(inputs["cache"])))


def _check_warm(spec, inputs, out, gate):
    if not gate.check("multiply exit status", out["status"] == 0, f"status {out['status']}"):
        return
    with open(inputs["uncached_path"]) as fh:
        plain = fh.read()
    gate.check("warm output equals uncached output", out["text"] == plain,
               f"{len(out['text'])} vs {len(plain)} characters")
    obj = json.loads(out["text"])
    rs = reference.RootSystem(spec["lie"])
    got = {rs.key(tuple(t["word"])): t["coeff"] for t in obj["terms"]}
    expect = rs.chevalley_product(inputs["word"], inputs["letter"])
    gate.check("product against Chevalley", got == expect,
               f"{len(got)} terms, expected {len(expect)}")


PREPARE = {
    "presentation": _prepare_presentation,
    "gysin": _prepare_gysin,
    "cli": _prepare_cli,
}
# (kind, stage) -> (timed pass, untimed follow-up or None, gate)
STAGE_STEPS = {
    ("presentation", "main"): (_execute_presentation, None, _check_presentation),
    ("gysin", "main"): (_execute_gysin, None, _check_gysin),
    ("cli", "cold"): (_execute_cold, _after_cold, _check_cold),
    ("cli", "warm"): (_execute_warm, None, _check_warm),
}
