"""Always-Smith relation selection and the membership test for S = K: the
test oracles for `minimal_relations`.

The package skips the Smith step in degrees where the ideal generated so
far already fills the kernel lattice.  `always_smith_relations` runs
`_fresh_generators` in every degree that has a kernel, so the package's
output can be compared against it relation by relation.  The package
decides S = K by stacking S with the complement rows of the degree's
Hermite form; `membership_fills_kernel` decides it the way the package
once did, by reducing every kernel basis row in S.
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
        kern = relation_kernel(table, gens, m).kernel
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


def membership_fills_kernel(span, kern):
    """Whether the lattice `span` inside the kernel equals the lattice of `kern`."""
    return span.rank == len(kern) and all(p.terms in span for p in kern)
