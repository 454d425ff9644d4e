"""Dictionary between type-A coset classes and Grassmannian box partitions.

For A_{n-1} with K = {k}, the parabolic is S_k x S_{n-k} and the minimal
coset representatives are the permutations that ascend on both blocks.  A
representative w corresponds to the k-subset S = w({1..k}) of {1..n}, and
to the partition

    lambda_i = s_{k+1-i} - (k+1-i),   S = {s_1 < ... < s_k},

inside the k x (n-k) box, with |lambda| = l(w).

Permutations are read off from the action on the weight vectors
x_j = omega_j - omega_{j-1} (with x_n = -omega_{n-1}), which the Weyl group
permutes.
"""

from schubert.characteristics import SchubertClass

from brute_weyl import weight_matrix


def _point_vectors(rank):
    """x_1..x_{rank+1} in fundamental-weight coordinates."""
    n = rank + 1
    xs = []
    for j in range(1, n + 1):
        v = [0] * rank
        if j <= rank:
            v[j - 1] = 1
        if j >= 2:
            v[j - 2] -= 1
        xs.append(tuple(v))
    return xs


def permutation_of(w):
    """One-line permutation pi with w(x_j) = x_{pi(j)}, 1-based."""
    rank = w.lie_type.rank
    xs = _point_vectors(rank)
    lookup = {v: j + 1 for j, v in enumerate(xs)}
    mat = weight_matrix(w)
    return tuple(
        lookup[tuple(sum(v[k] * mat[k][s] for k in range(rank)) for s in range(rank))]
        for v in xs
    )


def subset_to_partition(subset, k):
    s = sorted(subset)
    lam = [s[k - i] - (k + 1 - i) for i in range(1, k + 1)]
    return tuple(x for x in lam if x > 0)


def partition_class_maps(table, k):
    """(partition -> SchubertClass, (r, i) -> partition) for an A-type table."""
    to_class = {}
    to_partition = {}
    for r, i, w in table:
        pi = permutation_of(w)
        lam = subset_to_partition(pi[:k], k)
        assert sum(lam) == r, (pi, lam, r)
        to_class[lam] = SchubertClass(r, i)
        to_partition[(r, i)] = lam
    return to_class, to_partition
