"""Tuple-keyed triangular operator: the test oracle for the packed one.

The package evaluates T_A on exponent vectors packed into ints
(`schubert.triangular.evaluate_exponents`).  This version runs the same
level-by-level recursion on exponent tuples, with slicing and
concatenation instead of shifts and masks, so the packed keys can be
compared against it.
"""


def tuple_evaluate_exponents(A, terms) -> int:
    """T_A on a sparse {exponent tuple: coefficient} map (degree == size)."""
    m = A.size
    cur = terms
    while m > 1:
        col = A.column(m - 1)
        lf = {k: a for k, a in enumerate(col) if a}
        # powers of the substituted linear form, built on demand
        zero = (0,) * (m - 1)
        pows = [{zero: 1}]

        def lf_pow(r):
            while len(pows) <= r:
                prev = pows[-1]
                nxt = {}
                for e, c in prev.items():
                    for k, a in lf.items():
                        key = e[:k] + (e[k] + 1,) + e[k + 1:]
                        nxt[key] = nxt.get(key, 0) + c * a
                pows.append(nxt)
            return pows[r]

        merged = {}
        for exp, c in cur.items():
            r = exp[m - 1]
            if r == 0:
                continue
            base = exp[: m - 1]
            for e2, c2 in lf_pow(r - 1).items():
                key = tuple(a + b for a, b in zip(base, e2))
                merged[key] = merged.get(key, 0) + c * c2
        cur = merged
        m -= 1
    return cur.get((1,), 0)
