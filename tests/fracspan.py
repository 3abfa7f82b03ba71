"""Row span over the rationals: the exact oracle for integer echelon tests.

Rows are sparse dicts from column index to value.  Elimination is over
``Fraction`` with each pivot scaled to lead 1, so it shares nothing with the
library's integer echelon in ``hesscomb.linalg``.
"""

from fractions import Fraction


class FracSpan:
    """Row space over Q with exact elimination; rows are index -> value dicts."""

    def __init__(self):
        self.pivots = {}

    def _reduce(self, row):
        row = {i: Fraction(v) for i, v in row.items() if v}
        while row:
            lead = min(row)
            if lead not in self.pivots:
                return row, lead
            piv = self.pivots[lead]
            factor = row[lead]
            for i, v in piv.items():
                row[i] = row.get(i, Fraction(0)) - factor * v
                if not row[i]:
                    del row[i]
        return row, None

    def insert(self, row):
        row, lead = self._reduce(row)
        if lead is None:
            return False
        scale = row[lead]
        self.pivots[lead] = {i: v / scale for i, v in row.items()}
        return True

    def contains(self, row):
        _, lead = self._reduce(row)
        return lead is None

    @property
    def rank(self):
        return len(self.pivots)
