"""Row Hermite form on two lists, the oracle for `hermite_with_transform`.

H and U are kept as separate row lists and every row operation is applied
to each; the library applies the same operations, in the same order, to
one augmented row M[i] + e_i, so both must return the same (H, U).  The
pivot rule is the library's: least absolute value in the column, lowest
row on ties.  No postcondition is checked here.
"""


def dense_hermite(M):
    """(H, U) with U * M = H in row Hermite normal form."""
    h = [list(row) for row in M]
    rows = len(h)
    cols = len(h[0]) if rows else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        # euclidean elimination below pivot_row in this column
        while True:
            live = [r for r in range(pivot_row, rows) if h[r][col]]
            if not live:
                break
            piv = min(live, key=lambda r: (abs(h[r][col]), r))
            if piv != pivot_row:
                h[piv], h[pivot_row] = h[pivot_row], h[piv]
                u[piv], u[pivot_row] = u[pivot_row], u[piv]
            done = True
            pv = h[pivot_row][col]
            for r in range(pivot_row + 1, rows):
                if h[r][col]:
                    q = h[r][col] // pv
                    if q:
                        h[r] = [a - q * b for a, b in zip(h[r], h[pivot_row])]
                        u[r] = [a - q * b for a, b in zip(u[r], u[pivot_row])]
                    if h[r][col]:
                        done = False
            if done:
                break
        if h[pivot_row][col]:
            if h[pivot_row][col] < 0:
                h[pivot_row] = [-x for x in h[pivot_row]]
                u[pivot_row] = [-x for x in u[pivot_row]]
            pv = h[pivot_row][col]
            for r in range(pivot_row):
                q = h[r][col] // pv
                if q:
                    h[r] = [a - q * b for a, b in zip(h[r], h[pivot_row])]
                    u[r] = [a - q * b for a, b in zip(u[r], u[pivot_row])]
            pivot_row += 1
    return h, u
