"""Exact linear algebra over GF(5): one fully reduced sparse echelon."""

from __future__ import annotations

P = 5
_INV = {1: 1, 2: 3, 3: 2, 4: 4}


class Echelon:
    """The span of the vectors added, as its reduced row echelon form: rows
    {pivot: {col: value}}, each 1 at its pivot (its lowest nonzero column)
    and 0 at every other pivot, whatever order the vectors came in."""

    def __init__(self, vectors=()):
        self.rows = {}
        for vec in vectors:
            self.add(vec)

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """The canonical normal form of ``vec`` modulo the span, {col: value}:
        the one vector of vec + span that is 0 at every pivot.  It is empty
        exactly when ``vec`` lies in the span."""
        vec = list(vec)
        # rows are 0 at the other pivots: subtract vec[p] * row p, once each
        for p, f in [(p, f) for p, f in enumerate(vec) if f and p in self.rows]:
            for c, x in self.rows[p].items():
                vec[c] -= f * x
        return {c: x % P for c, x in enumerate(vec) if x % P}

    def add(self, vec):
        """Add ``vec`` to the span; False when it was already in it."""
        new = self.reduce(vec)
        if not new:
            return False
        pivot = min(new)
        inv = _INV[new[pivot]]
        new = {c: x * inv % P for c, x in new.items()}
        for row in self.rows.values():  # clear the new pivot everywhere
            f = row.get(pivot)
            for c, x in new.items() if f else ():
                row[c] = (row.get(c, 0) - f * x) % P
                if not row[c]:
                    del row[c]
        self.rows[pivot] = new
        return True

    def nullspace(self, ncols):
        """Basis of {x : row . x = 0 for every row} in GF(5)^ncols: for each
        non-pivot column f, 1 at f and -row[f] at each pivot."""
        basis = []
        for f in range(ncols):
            if f not in self.rows:
                vec = [0] * ncols
                vec[f] = 1
                for p, row in self.rows.items():
                    vec[p] = -row.get(f, 0) % P
                basis.append(vec)
        return basis


def nullspace(rows, ncols):
    """Basis of {x : rows @ x = 0} in GF(5)^ncols."""
    return Echelon(rows).nullspace(ncols)


def matvec(rows, x):
    return [sum(a * b for a, b in zip(r, x)) % P for r in rows]
