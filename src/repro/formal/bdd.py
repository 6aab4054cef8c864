"""Bounded reduced ordered BDDs — the pure-python proof engine.

A :class:`Bdd` manager holds the shared unique table for one variable
ordering.  Formula netlists are translated gate by gate through the
cell library's own boolean functions (:func:`repro.formal.backends.lower`
over this manager's ``not_``/``and_``/``or_``/``xor``); because two
encodings of the same design share input variable *labels*, translating
both into one manager canonicalizes them over the same ordering — two
functions are equal iff their root ids are equal, and a counterexample
to equality is one descent of the XOR diagram.

The manager is **bounded**: constructions that would exceed the node
budget raise :class:`BudgetExceeded`, which the backend ladder converts
into an honest ``unknown`` (falling through to exhaustive sweeps or
SMT) rather than an unbounded memory walk.  The default variable order
interleaves the operand bits (``b0 < a0 < b1 < a1 < ...``), the order
under which log/segment datapath diagrams stay polynomial; the exact
multiplier core is exponential under *every* order (Bryant 1986), which
is precisely why the ladder exists.
"""

from __future__ import annotations

__all__ = ["Bdd", "BudgetExceeded", "interleaved_order"]

FALSE = 0
TRUE = 1


class BudgetExceeded(RuntimeError):
    """The node budget was hit; the result so far is meaningless."""


def interleaved_order(labels) -> dict[str, int]:
    """Variable order interleaving the ``a``/``b`` buses by bit index.

    ``b[i]`` sits immediately below ``a[i]``; unknown label shapes sort
    after the operand bits, in name order.
    """

    def key(label: str):
        prefix, _, index = label.rpartition("[")
        if prefix in ("a", "b") and index.endswith("]"):
            return (0, int(index[:-1]), 0 if prefix == "b" else 1, label)
        return (1, 0, 0, label)

    return {label: level for level, label in enumerate(sorted(set(labels), key=key))}


class Bdd:
    """A shared-table ROBDD manager with an ``ite``-based operator set."""

    false = FALSE
    true = TRUE

    def __init__(self, order: dict[str, int], budget: int = 2_000_000):
        if len(set(order.values())) != len(order):
            raise ValueError("variable order must be a bijection onto levels")
        self.order = dict(order)
        self.budget = budget
        #: node id -> (level, lo, hi); terminals carry an off-scale level
        self._level = [1 << 60, 1 << 60]
        self._lo = [FALSE, TRUE]
        self._hi = [FALSE, TRUE]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}

    def __len__(self) -> int:
        return len(self._level)

    def var(self, label: str) -> int:
        try:
            level = self.order[label]
        except KeyError:
            raise KeyError(f"variable {label!r} not in the ordering") from None
        return self._mk(level, FALSE, TRUE)

    def _mk(self, level: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (level, lo, hi)
        node = self._unique.get(key)
        if node is None:
            if len(self._level) >= self.budget:
                raise BudgetExceeded(
                    f"BDD exceeded {self.budget} nodes at level {level}"
                )
            node = len(self._level)
            self._level.append(level)
            self._lo.append(lo)
            self._hi.append(hi)
            self._unique[key] = node
        return node

    def _cofactors(self, f: int, level: int) -> tuple[int, int]:
        if self._level[f] == level:
            return self._lo[f], self._hi[f]
        return f, f

    def ite(self, f: int, g: int, h: int) -> int:
        """``f ? g : h`` — the one recursive operator everything uses."""
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        key = (f, g, h)
        out = self._ite_cache.get(key)
        if out is None:
            level = min(self._level[f], self._level[g], self._level[h])
            f0, f1 = self._cofactors(f, level)
            g0, g1 = self._cofactors(g, level)
            h0, h1 = self._cofactors(h, level)
            out = self._mk(
                level, self.ite(f0, g0, h0), self.ite(f1, g1, h1)
            )
            self._ite_cache[key] = out
        return out

    def not_(self, f: int) -> int:
        return self.ite(f, FALSE, TRUE)

    def and_(self, f: int, g: int) -> int:
        return self.ite(f, g, FALSE)

    def or_(self, f: int, g: int) -> int:
        return self.ite(f, TRUE, g)

    def xor(self, f: int, g: int) -> int:
        return self.ite(f, self.ite(g, FALSE, TRUE), g)

    def satisfying_assignment(self, f: int) -> dict[str, int] | None:
        """One satisfying assignment of ``f`` (unmentioned vars are free).

        Returns ``{label: 0/1}`` for the variables on the chosen path, or
        ``None`` when ``f`` is unsatisfiable.
        """
        if f == FALSE:
            return None
        by_level = {level: label for label, level in self.order.items()}
        assignment: dict[str, int] = {}
        while f != TRUE:
            label = by_level[self._level[f]]
            if self._lo[f] != FALSE:
                assignment[label] = 0
                f = self._lo[f]
            else:
                assignment[label] = 1
                f = self._hi[f]
        return assignment
