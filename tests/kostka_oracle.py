"""The Kostka numbers by direct count: semistandard tableaux are filled cell
by cell, row by row, each entry at least its left neighbour and larger than
the entry above it.  This is the reference for symfunc._kostka_matrix, which
counts the same tableaux as chains of horizontal strips (Pieri's rule)."""

from hesscomb.tableaux import Partition


def kostka(lam: Partition, mu: Partition) -> int:
    """Number of semistandard tableaux of shape lam and content mu."""
    shape = lam.parts
    content = list(mu.parts) + [0] * (lam.size - len(mu.parts))
    nrows = len(shape)
    grid = [[0] * length for length in shape]
    remaining = list(content)
    count = 0

    def fill(r: int, c: int) -> None:
        nonlocal count
        if r == nrows:
            count += 1
            return
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        lo = 1
        if c > 0:
            lo = grid[r][c - 1]
        if r > 0 and c < shape[r - 1]:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, len(remaining) + 1):
            if remaining[v - 1]:
                remaining[v - 1] -= 1
                grid[r][c] = v
                fill(nr, nc)
                remaining[v - 1] += 1

    fill(0, 0)
    return count
