"""Window equations as a weighted union-find on prefix sums.

Every equation Algorithm 6 harvests is a cyclic window sum
``x_s + ... + x_{s+c-1} = v / den``, where ``v`` is an integer
numerator over the backends' shared denominator ``den`` (the same
``Z/(2D)`` grid the kinematics run on).  Over the prefix sums
``P_k = x_0 + ... + x_{k-1}`` (``P_0 = 0``, circumference
``L = P_n``) that window reads

    P_e - P_s + w * L = v / den,   e = (s + c) mod n,  w = (s + c) // n,

an edge between nodes ``s`` and ``e`` of a graph on the n prefix sums
plus one global unknown ``L``.  The change of variables
``(x_0 .. x_{n-1}) -> (P_1 .. P_{n-1}, L)`` is invertible, so ranks,
contradictions and solutions carry over unchanged:

* an edge that joins two components raises the rank by one;
* an edge that closes a cycle reduces to ``B * L = A / den``, ``B``
  being the cycle's net wrap count: it pins ``L`` when ``B != 0`` and
  ``L`` is still free (rank + 1), is redundant when it agrees with what
  is already known, and is a contradiction otherwise;

so ``rank = (n - components) + [L pinned]``.
:class:`IntEquationSystem` tracks this with a union-find whose nodes
carry a potential ``a / den + b * L`` relative to their root: three
length-n lists of Python ints per system, integer arithmetic only, and
near-constant work per equation.  Only :meth:`IntEquationSystem.solve`
materialises Fractions, through an intern dict that every agent of a
discovery can share.

The exact-`Fraction` :class:`~repro.analysis.equations.EquationSystem`
stays the executable spec; the equivalence is load-bearing and pinned
three ways:

* construction with ``cross_check=True`` shadows every ``add`` /
  ``solve`` on a live :class:`~repro.analysis.equations.EquationSystem`
  and asserts identical rank trajectory, identical
  :class:`~repro.exceptions.SingularSystemError` behaviour and
  identical solutions (``discover_distances(..., engine="cross")``
  turns this on for the native Distances driver);
* ``tests/test_int_equations.py`` property-tests the agreement on
  random window systems;
* ``benchmarks/bench_equations.py`` enforces bit-exact protocol output
  against the spec engine before timing anything.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.analysis.equations import Equation, EquationSystem
from repro.exceptions import SingularSystemError


class IntEquation(NamedTuple):
    """The window constraint ``x_start + ... + x_{start+count-1} =
    value / den`` (cyclic indices), ``den`` being the owning system's
    shared denominator and ``value`` the right-hand side's integer
    numerator.  Nothing here ever materialises a Fraction."""

    start: int
    count: int
    value: int

    @staticmethod
    def window(n: int, start: int, count: int, value: int) -> "IntEquation":
        """Integer twin of :meth:`Equation.window` at unit scale."""
        return IntEquation(start % n, count, value)


class IntEquationSystem:
    """Incremental window equations over prefix sums.

    Mirrors :class:`~repro.analysis.equations.EquationSystem`'s API and
    observable behaviour exactly -- same rank trajectory, same
    :class:`SingularSystemError` on contradictions, identical
    :meth:`solve` output -- for window equations.  Node ``k`` stands
    for ``P_k``; a root is its own parent, and any other node has
    ``P_k = P_parent + a[k] / den + b[k] * L``.  ``find`` compresses
    paths, re-basing each potential onto the root.
    """

    def __init__(self, n: int, den: int, cross_check: bool = False) -> None:
        if den <= 0:
            raise ValueError("den must be a positive integer")
        self.n = n
        self.den = den
        self._parent = list(range(n))
        self._a = [0] * n
        self._b = [0] * n
        self._components = n
        # (A, B) with B > 0 once some cycle pinned B * L = A / den.
        self._pin: Optional[Tuple[int, int]] = None
        self._shadow: Optional[EquationSystem] = (
            EquationSystem(n) if cross_check else None
        )

    # -- spec mirroring ---------------------------------------------------

    @property
    def rank(self) -> int:
        return self.n - self._components + (self._pin is not None)

    @property
    def full_rank(self) -> bool:
        return self.rank == self.n

    def _spec_equation(self, eq: IntEquation) -> Equation:
        return Equation.window(
            self.n, eq.start, eq.count, Fraction(1),
            Fraction(eq.value, self.den),
        )

    # -- the union-find ---------------------------------------------------

    def add(self, eq: IntEquation) -> bool:
        """Insert an equation; returns True if it increased the rank.

        Raises:
            SingularSystemError: If the equation contradicts the earlier
                ones.
        """
        if self._shadow is None:
            return self._add(eq)
        spec_raised = False
        try:
            expected = self._shadow.add(self._spec_equation(eq))
        except SingularSystemError:
            spec_raised = True
        try:
            grew = self._add(eq)
        except SingularSystemError:
            if not spec_raised:
                raise AssertionError(
                    "cross-check failed: int path raised where the "
                    "Fraction spec accepted the equation"
                )
            raise
        if spec_raised:
            raise AssertionError(
                "cross-check failed: Fraction spec raised where the "
                "int path accepted the equation"
            )
        if grew != expected or self.rank != self._shadow.rank:
            raise AssertionError(
                "cross-check failed: rank trajectories diverged "
                f"(int {self.rank}, spec {self._shadow.rank})"
            )
        return grew

    def _find(self, node: int) -> int:
        parent = self._parent
        up = parent[node]
        if up == node or parent[up] == up:
            return up
        path = []
        while parent[node] != node:
            path.append(node)
            node = parent[node]
        a, b = self._a, self._b
        # path[-1] already hangs off the root; re-base the rest from
        # the root outwards so each parent is re-based before its child.
        for child in reversed(path[:-1]):
            up = parent[child]
            a[child] += a[up]
            b[child] += b[up]
            parent[child] = node
        return node

    def _add(self, eq: IntEquation) -> bool:
        start, count, value = eq
        n = self.n
        end = start + count
        tail, head = start % n, end % n
        wraps = end // n - start // n
        # P_head - P_tail + wraps * L = value / den, with both ends
        # re-based onto their roots (a root's potential is 0).
        root_tail = self._find(tail)
        root_head = self._find(head)
        a, b = self._a, self._b
        if root_tail != root_head:
            self._parent[root_head] = root_tail
            a[root_head] = a[tail] + value - a[head]
            b[root_head] = b[tail] - wraps - b[head]
            self._components -= 1
            return True
        # A closed cycle: B * L = A / den.
        num = value - a[head] + a[tail]
        coeff = b[head] - b[tail] + wraps
        if self._pin is None and coeff != 0:
            if coeff < 0:
                num, coeff = -num, -coeff
            shrink = gcd(num, coeff)
            self._pin = (num // shrink, coeff // shrink)
            return True
        # Redundant or a contradiction; while L is free only B == 0
        # gets here, and the check reduces to A == 0.
        pin_num, pin_coeff = self._pin or (0, 1)
        if coeff * pin_num != num * pin_coeff:
            raise SingularSystemError("observation contradicts earlier ones")
        return False

    # -- solving ----------------------------------------------------------

    def solve(
        self, interned: Optional[Dict[int, Dict[int, Fraction]]] = None
    ) -> List[Fraction]:
        """The exact solution vector.

        Over the common denominator ``den * B`` every prefix sum's
        numerator is an integer, so each gap is one integer difference.
        Cells materialise through ``interned`` (denominator -> numerator
        -> Fraction, canonical per value), so systems solved through one
        dict share a single object per distinct value and construct
        about one Fraction per distinct value between them.
        """
        if not self.full_rank:
            raise SingularSystemError(
                f"rank {self.rank} < {self.n}: not enough observations"
            )
        n = self.n
        for node in range(n):
            self._find(node)
        a, b = self._a, self._b
        pin_num, pin_coeff = self._pin
        a0, b0 = a[0], b[0]
        prefix = [
            (ak - a0) * pin_coeff + (bk - b0) * pin_num
            for ak, bk in zip(a, b)
        ]
        prefix.append(pin_num)
        denom = self.den * pin_coeff
        if interned is None:
            interned = {}
        by_num = interned.setdefault(denom, {})
        result = []
        for k in range(n):
            num = prefix[k + 1] - prefix[k]
            cell = by_num.get(num)
            if cell is None:
                cell = Fraction(num, denom)
                cell = interned.setdefault(cell.denominator, {}).setdefault(
                    cell.numerator, cell
                )
                by_num[num] = cell
            result.append(cell)
        if self._shadow is not None:
            if result != self._shadow.solve():
                raise AssertionError(
                    "cross-check failed: int and Fraction solutions differ"
                )
        return result

    def solve_if_ready(self) -> Optional[List[Fraction]]:
        """The solution if the system already has full rank, else None."""
        return self.solve() if self.full_rank else None
