"""Always-Smith relation selection: the test oracle for `minimal_relations`.

The package skips the Smith step in degrees where the ideal generated so
far already fills the kernel lattice.  This loop runs `_fresh_generators`
in every degree that has a kernel, so the package's output can be compared
against it relation by relation.
"""

from schubert.cohomology import (
    Presentation,
    _fresh_generators,
    graded_ideal_span,
    relation_kernel,
)
from schubert.intpoly import IntPolynomial, monomial_exponents


def always_smith_relations(table, gens, up_to):
    kept = []
    ring = gens.ring
    for m in range(1, up_to + 1):
        kern = relation_kernel(table, gens, m)
        if not kern:
            continue
        exps = monomial_exponents(ring, m)
        basis = [[p.terms.get(e, 0) for e in exps] for p in kern]
        span = graded_ideal_span(ring, kept, m)
        inside = [[dict(row).get(e, 0) for e in exps] for row in span.canonical_basis()]
        for row in _fresh_generators(basis, inside):
            terms = {e: c for e, c in zip(exps, row) if c}
            kept.append(IntPolynomial(ring, terms))
    return Presentation(gens.generators, tuple(kept))
