"""Chevalley cover data by one walk along each target's word, a test oracle.

The package builds the cover data of a level from the level below, with no
word (`schubert.characteristics._cover_data`).  This module computes the
same rows the direct way.  It walks the word (i_1..i_m) of each target w
of level r: dropping position p leaves u = s_{i_1}...s_{i_{p-1}}
s_{i_{p+1}}...s_{i_m}, and w = u * s_beta for the root
beta = s_{i_m}...s_{i_{p+1}}(alpha_{i_p}).  A drop that is not a class of
level r - 1 is skipped; a dropped word that is not reduced can still give a
shorter class, as 2,2,1 gives s_1 in B3.

The walk from the right end of the word carries the images of the simple
roots and of the simple coroots under s_{i_m}...s_{i_{p+1}}, which give
beta and beta^vee.  The coroots are walked on their own, through the
transposed Cartan matrix, so the rescaling of beta that the package uses
is not shared.  Classes are keyed by the packed root matrix of their
inverse, and u^{-1} = s_beta * w^{-1}, so the key of u has rows
u^{-1}(alpha_k) = w^{-1}(alpha_k) - <w^{-1}(alpha_k), beta^vee> * beta.
"""

from operator import mul

from schubert.cartan import cartan_matrix
from schubert.weyl import _identity_rows, reflection_pairs, right_multiply_rows, unpack_root


def cover_rows_by_walk(table, r):
    """Per class u of level r - 1: the pairs (k, beta^vee) with (r, k) = u * s_beta.

    The same tuples, in the same order, as `_cover_data(table, r)`.
    """
    lt = table.lie_type
    c = cartan_matrix(lt)
    pairs = reflection_pairs(lt)
    n = lt.rank
    # s_j acts on coroot coordinates through the transposed Cartan matrix
    copairs = tuple(
        tuple((k, c[j][k]) for k in range(n) if c[j][k]) for j in range(n)
    )
    columns = tuple(zip(*c))
    identity = _identity_rows(n)
    covers = [[] for _ in range(table.beta(r - 1))]
    for k, w in enumerate(table.level(r), start=1):
        letters = w.word
        inv = w.inv_root_rows
        # row k: <w^{-1}(alpha_k), alpha_l^vee> for each l
        pairings = []
        for row in inv:
            coords = unpack_root(row, n)
            pairings.append(tuple(sum(map(mul, coords, col)) for col in columns))
        roots = coroot_images = identity
        for p in range(r - 1, -1, -1):
            j0 = letters[p] - 1
            beta = roots[j0]
            coroot = unpack_root(coroot_images[j0], n)
            rows = tuple(
                row - sum(map(mul, pairing, coroot)) * beta
                for row, pairing in zip(inv, pairings)
            )
            u = table.index_of_inv_root_rows(rows, r - 1)
            if u is not None:
                covers[u[1] - 1].append((k, coroot))
            roots = right_multiply_rows(roots, j0, pairs)
            coroot_images = right_multiply_rows(coroot_images, j0, copairs)
    return tuple(map(tuple, covers))
