"""Smith form on three matrices, the oracle for `smith_with_transforms`.

D, P and Q are kept as separate matrices and every row operation is
applied to D and P, every column operation to D and Q; the library
applies the same operations, in the same order, to one block matrix
[[M, I], [I, 0]], so both must return the same (P, D, Q).  The pivot rule
is the library's: least absolute value in the trailing block, lowest row
and then column on ties.  No postcondition is checked here.
"""


def dense_smith(M):
    """(P, D, Q) with P * M * Q = D in Smith normal form."""
    d = [list(row) for row in M]
    rows = len(d)
    cols = len(d[0]) if rows else 0
    p = [[int(i == j) for j in range(rows)] for i in range(rows)]
    q = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(r1, r2, k):  # row r1 -= k * row r2
        d[r1] = [a - k * b for a, b in zip(d[r1], d[r2])]
        p[r1] = [a - k * b for a, b in zip(p[r1], p[r2])]

    def col_op(c1, c2, k):  # col c1 -= k * col c2
        for r in range(rows):
            d[r][c1] -= k * d[r][c2]
        for r in range(cols):
            q[r][c1] -= k * q[r][c2]

    def row_swap(r1, r2):
        d[r1], d[r2] = d[r2], d[r1]
        p[r1], p[r2] = p[r2], p[r1]

    def col_swap(c1, c2):
        for r in range(rows):
            d[r][c1], d[r][c2] = d[r][c2], d[r][c1]
        for r in range(cols):
            q[r][c1], q[r][c2] = q[r][c2], q[r][c1]

    t = 0
    while True:
        entries = [
            (abs(d[r][c]), r, c)
            for r in range(t, rows)
            for c in range(t, cols)
            if d[r][c]
        ]
        if not entries:
            break
        _, r0, c0 = min(entries)
        if r0 != t:
            row_swap(t, r0)
        if c0 != t:
            col_swap(t, c0)
        again = False
        for r in range(t + 1, rows):
            if d[r][t]:
                kq = d[r][t] // d[t][t]
                row_op(r, t, kq)
                if d[r][t]:
                    again = True
        for c in range(t + 1, cols):
            if d[t][c]:
                kq = d[t][c] // d[t][t]
                col_op(c, t, kq)
                if d[t][c]:
                    again = True
        if again:
            continue
        # divisibility fix: pivot must divide the rest of the block
        offender = None
        for r in range(t + 1, rows):
            for c in range(t + 1, cols):
                if d[r][c] % d[t][t]:
                    offender = r
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # add offending row to pivot row
            continue
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            p[t] = [-x for x in p[t]]
        t += 1
        if t >= min(rows, cols):
            break
    return p, d, q
