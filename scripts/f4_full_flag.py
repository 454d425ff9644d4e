#!/usr/bin/env python3
"""Assemble the cohomology ring of the complete flag manifold F4/T.

The fibration F4/T -> F4/P1 has fiber P1/T, a complete flag manifold of
Sp(6) whose ring is cut out from Z[w2, w3, w4] by the parabolic Weyl
invariants of degrees 2, 4 and 6.  All ingredients are computed here from
the Cartan matrix alone:

  * the base presentation of H*(F4/P1) (generators w1, y3, y4, y6),
  * the orbit invariants c_r of the parabolic Weyl group,
  * the glue polynomials g_r expressing each c_r on the base.

assemble_full_flag stitches the pieces together and simplifies; with
--verify every relation of the assembled ring is then expanded over the
full 1152-class table and checked to vanish.

Example:
    python3 scripts/f4_full_flag.py --verify
"""

import argparse
from time import perf_counter

from schubert import (
    Generator,
    LieType,
    PolyRing,
    Presentation,
    assemble_full_flag,
    enumerate_cosets,
    expand_polynomial,
    invariant_on_parabolic,
    minimal_generators,
    minimal_relations,
    rewrite_in_generators,
    weyl_orbit_invariants,
)

FIBER_DEGREES = (2, 4, 6)  # basic invariant degrees of the Weyl group C3
SEED = 4  # orbit of the last fundamental weight spans the invariants


def build():
    lie_type = LieType.parse("F4")
    table = enumerate_cosets(lie_type, {1})
    gens = minimal_generators(table)
    base = minimal_relations(table, gens, 12)

    invariants = weyl_orbit_invariants(lie_type, {1}, SEED)
    fiber_ring = PolyRing(("w2", "w3", "w4"), (1, 1, 1))
    fiber = Presentation(
        tuple(Generator(f"w{i}", (i,)) for i in (2, 3, 4)),
        tuple(invariants[r - 1].substitute({"w1": 0}, fiber_ring)
              for r in FIBER_DEGREES),
    )

    glue = []
    for r in FIBER_DEGREES:
        c_r = invariants[r - 1]
        g_r = rewrite_in_generators(table, gens, invariant_on_parabolic(table, c_r))
        print(f"glue in degree {2 * r}:  c{r} = {g_r}")
        glue.append((c_r, g_r))

    return assemble_full_flag(fiber, base, glue)


def verify(pres):
    lie_type = LieType.parse("F4")
    full = enumerate_cosets(lie_type, range(1, 5))
    words = dict(pres.words())
    print(f"expanding {len(pres.relations)} relations over "
          f"{full.total} Schubert classes ...")
    for rel in pres.relations:
        leftover = expand_polynomial(full, rel, words)
        status = "vanishes" if not leftover else f"FAILS: {leftover}"
        print(f"  [{2 * rel.degree()}]  {rel} = 0  ... {status}")
        if leftover:
            raise SystemExit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--verify", action="store_true",
                    help="expand every assembled relation over F4/T "
                         "and check it vanishes")
    args = ap.parse_args()

    t0 = perf_counter()
    pres = build()
    print()
    print(pres.text())
    print(f"assembled in {perf_counter() - t0:.1f}s")
    if args.verify:
        print()
        verify(pres)


if __name__ == "__main__":
    main()
