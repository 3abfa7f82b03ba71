"""Invariant factors of an integer matrix (its Smith normal form), by integer
row and column operations.  A test helper, independent of the library."""


def smith_invariants(matrix):
    """The nonzero diagonal of the Smith normal form: positive integers
    d_1 | d_2 | ..., one per unit of rank."""
    a = [list(row) for row in matrix]
    rows, cols = len(a), len(a[0]) if a else 0
    out = []
    for t in range(min(rows, cols)):
        while True:
            nonzero = [(abs(a[i][j]), i, j)
                       for i in range(t, rows) for j in range(t, cols) if a[i][j]]
            if not nonzero:
                return out
            # Move the entry of least size to (t, t).
            _, i, j = min(nonzero)
            a[t], a[i] = a[i], a[t]
            for row in a:
                row[t], row[j] = row[j], row[t]
            p = a[t][t]
            # Clear row t and column t down to remainders, which are smaller
            # than |p|, so each round that leaves one shrinks the pivot.
            cleared = True
            for i in range(t + 1, rows):
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                cleared = cleared and not a[i][t]
            for j in range(t + 1, cols):
                q = a[t][j] // p
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                cleared = cleared and not a[t][j]
            if not cleared:
                continue
            # p must divide every remaining entry; add a row where it does not.
            bad = next((i for i in range(t + 1, rows)
                        if any(a[i][j] % p for j in range(t + 1, cols))), None)
            if bad is None:
                out.append(abs(p))
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
    return out
