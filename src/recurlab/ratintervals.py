"""Exact half-open interval sets over the rationals.

Sets are finite unions of ``[lo, hi)`` with ``int`` or ``Fraction``
endpoints, taken as they are (sets of integer cells stay in integer
arithmetic) and kept sorted, disjoint and non-adjacent.  All operations
are exact; measures are exact rationals.  Half-open orientation makes
translation bookkeeping for piecewise maps seamless (no double counting
at shared endpoints, boundary points carry no measure).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Interval = tuple[int | Fraction, int | Fraction]


class IntervalSet:
    """Finite union of half-open rational intervals [lo, hi)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[Interval] = (), already_normal: bool = False):
        if already_normal:
            self.parts: list[Interval] = list(parts)
            return
        raw = [(a, b) for a, b in parts if a < b]
        raw.sort()
        merged: list[Interval] = []
        for a, b in raw:
            if merged and a <= merged[-1][1]:
                la, lb = merged[-1]
                merged[-1] = (la, max(lb, b))
            else:
                merged.append((a, b))
        self.parts = merged

    @staticmethod
    def single(lo, hi) -> "IntervalSet":
        return IntervalSet([(lo, hi)] if lo < hi else [], already_normal=True)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalSet) and self.parts == other.parts

    def __repr__(self) -> str:
        inner = ", ".join(f"[{a}, {b})" for a, b in self.parts[:4])
        more = ", ..." if len(self.parts) > 4 else ""
        return f"IntervalSet({inner}{more})"

    def measure(self) -> Fraction:
        return Fraction(sum(b - a for a, b in self.parts))

    def translate(self, offset) -> "IntervalSet":
        return IntervalSet([(a + offset, b + offset) for a, b in self.parts],
                           already_normal=True)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.parts + other.parts)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[Interval] = []
        i = j = 0
        p, q = self.parts, other.parts
        while i < len(p) and j < len(q):
            a = max(p[i][0], q[j][0])
            b = min(p[i][1], q[j][1])
            if a < b:
                out.append((a, b))
            if p[i][1] <= q[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(out, already_normal=True)

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        out: list[Interval] = []
        j = 0
        q = other.parts
        for a, b in self.parts:
            lo = a
            while j < len(q) and q[j][1] <= lo:
                j += 1
            jj = j
            while jj < len(q) and q[jj][0] < b:
                ca, cb = q[jj]
                if ca > lo:
                    out.append((lo, min(ca, b)))
                lo = max(lo, cb)
                if lo >= b:
                    break
                jj += 1
            if lo < b:
                out.append((lo, b))
        return IntervalSet([iv for iv in out if iv[0] < iv[1]], already_normal=True)

    def contains_point(self, x) -> bool:
        x = Fraction(x)
        for a, b in self.parts:
            if a > x:
                return False
            if x < b:
                return True
        return False

    def largest_component(self) -> Interval | None:
        if not self.parts:
            return None
        return max(self.parts, key=lambda iv: iv[1] - iv[0])


def balls_mod1(centers: Iterable[Fraction], radius: Fraction) -> IntervalSet:
    """Union of the radius-neighborhoods of ``centers`` on the circle [0, 1)."""
    radius = Fraction(radius)
    pieces: list[Interval] = []
    for center in centers:
        c = Fraction(center) % 1
        lo, hi = c - radius, c + radius
        pieces.append((max(lo, Fraction(0)), min(hi, Fraction(1))))
        if lo < 0:
            pieces.append((lo + 1, Fraction(1)))
        if hi > 1:
            pieces.append((Fraction(0), hi - 1))
    return IntervalSet(pieces)


def remove_ball_mod1(sur: IntervalSet, center: Fraction, radius: Fraction) -> IntervalSet:
    """Remove the radius-neighborhood of ``center`` on the circle [0, 1)."""
    return sur.subtract(balls_mod1([center], radius))


def union_all(sets: Sequence[IntervalSet]) -> IntervalSet:
    parts: list[Interval] = []
    for s in sets:
        parts.extend(s.parts)
    return IntervalSet(parts)
