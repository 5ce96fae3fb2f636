"""Integer sequence construction and exact combinatorial bookkeeping.

The experiments downstream all consume strictly increasing sequences of
positive integers.  This module builds the families used there:

* chained-divisibility sequences ``n_{k+1} = q_k n_k`` (every term divides
  every later term), the natural habitat for rigidity constructions;
* affine recursions ``n_{k+1} = q_k n_k + 1``;
* Euclidean decompositions ``n_{k+1} = p_k n_k + r_k`` feeding the
  cutting-and-stacking builder;
* a deterministic two-sided splitter producing nonincreasing positive
  rationals ``a_k, b_k`` and a partition of the index range into blocks
  alternating between two sides A and B such that on each B block the
  plain sums of ``a`` (and on each A block those of ``b``) are at least
  1/2, while the cube-root sums of the opposite letter on block ``n`` are
  at most ``2^-n``.  Both letters therefore have divergent full sums, yet
  each has a convergent cube-root sum along its small side.

The splitter's minimal-choice policy (always take the shortest admissible
block and the largest admissible constant value) makes every produced
value an exact power of two, while block lengths grow triply
exponentially; values and lengths are therefore carried as exact dyadic
exponents.  All invariant checks reduce to integer exponent comparisons
(cube-root sums are compared through their cubes), so verification stays
exact at any depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

# Materialize explicit integer block endpoints only below this bit size;
# beyond it the dyadic exponent is the only sane representation.
_ENDPOINT_BIT_GUARD = 1 << 20


class IntegerSequence:
    """Strictly increasing positive integers with lazy extension.

    ``rule(terms) -> int`` produces the next term from the materialized
    prefix; sequences without a rule are fixed finite prefixes.
    """

    def __init__(self, terms: Sequence[int], label: str = "",
                 divisibility: bool = False,
                 rule: Callable[[list[int]], int] | None = None):
        terms = [int(t) for t in terms]
        if not terms:
            raise ValueError("empty sequence")
        if terms[0] < 1:
            raise ValueError("terms must be positive")
        for a, b in zip(terms, terms[1:]):
            if b <= a:
                raise ValueError(f"not strictly increasing: {a} then {b}")
        self._terms = terms
        self.label = label or "seq"
        self.divisibility = bool(divisibility)
        self._rule = rule
        if divisibility:
            self._check_divisibility(terms)

    @staticmethod
    def _check_divisibility(terms: Sequence[int]) -> None:
        for a, b in zip(terms, terms[1:]):
            if b % a:
                raise ValueError(f"divisibility flag set but {a} does not divide {b}")

    # -- access ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._terms)

    def extend_to(self, count: int) -> None:
        while len(self._terms) < count:
            if self._rule is None:
                raise IndexError(
                    f"{self.label}: only {len(self._terms)} terms materialized "
                    f"and no generation rule")
            nxt = int(self._rule(self._terms))
            if nxt <= self._terms[-1]:
                raise ValueError(f"{self.label}: rule produced non-increasing term")
            if self.divisibility and nxt % self._terms[-1]:
                raise ValueError(f"{self.label}: rule broke divisibility")
            self._terms.append(nxt)

    def term(self, k: int) -> int:
        if k < 0:
            raise IndexError("negative index")
        self.extend_to(k + 1)
        return self._terms[k]

    def prefix(self, count: int) -> list[int]:
        self.extend_to(count)
        return list(self._terms[:count])

    def __repr__(self) -> str:
        head = ", ".join(str(t) for t in self._terms[:6])
        more = ", ..." if len(self._terms) > 6 else ""
        return f"IntegerSequence({self.label}: {head}{more})"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def gen_divisibility(base: int, ratios: Sequence[int] | Callable[[int], int],
                     count: int) -> IntegerSequence:
    """``n_0 = base``, ``n_{k+1} = ratios[k] * n_k``; every ratio >= 2.

    ``ratios`` may be a finite list (the sequence is then extendable up to
    its length) or a callable ``k -> ratio`` for unbounded extension.
    """
    if base < 1:
        raise ValueError("base must be a positive integer")
    if count < 1:
        raise ValueError("count must be >= 1")
    callable_ratios = callable(ratios)
    if not callable_ratios and len(ratios) < count - 1:
        raise ValueError(f"ratios has {len(ratios)} entries; count {count} "
                         f"needs at least {count - 1}")
    get = ratios if callable_ratios else list(ratios).__getitem__
    terms = [int(base)]
    for k in range(count - 1):
        q = int(get(k))
        if q < 2:
            raise ValueError(f"ratio {q} at step {k} rejected: ratios below 2 "
                             "give a degenerate (eventually constant) sequence")
        terms.append(terms[-1] * q)
    if callable_ratios:
        def rule(ts: list[int]) -> int:
            q = int(ratios(len(ts) - 1))
            if q < 2:
                raise ValueError("ratio below 2")
            return ts[-1] * q
    else:
        ratio_list = [int(r) for r in ratios]

        def rule(ts: list[int]) -> int:
            k = len(ts) - 1
            if k >= len(ratio_list):
                raise IndexError("ratio list exhausted")
            return ts[-1] * ratio_list[k]
    return IntegerSequence(terms, label=f"div(base={base})", divisibility=True,
                           rule=rule)


def triangular_pow2(count: int) -> IntegerSequence:
    """The divisibility sequence ``n_k = 2^{k(k+1)/2}`` (ratios 2^{k+1})."""
    seq = gen_divisibility(1, lambda k: 2 ** (k + 1), count)
    seq.label = "2^(k(k+1)/2)"
    return seq


def gen_recursive_q(q: int | Sequence[int], count: int) -> IntegerSequence:
    """``n_0 = 1``, ``n_{k+1} = q_k n_k + 1`` with multipliers ``q_k >= 1``."""
    if count < 1:
        raise ValueError("count must be >= 1")
    const = isinstance(q, int)
    qs = [int(q)] * max(count - 1, 1) if const else [int(x) for x in q]
    if len(qs) < count - 1:
        raise ValueError(f"q has {len(qs)} entries; count {count} "
                         f"needs at least {count - 1}")
    terms = [1]
    for k in range(count - 1):
        if qs[k] < 1:
            raise ValueError("multipliers must be >= 1")
        terms.append(qs[k] * terms[-1] + 1)

    def rule(ts: list[int]) -> int:
        k = len(ts) - 1
        if not const and k >= len(qs):
            raise IndexError("multiplier list exhausted")
        return (q if const else qs[k]) * ts[-1] + 1
    return IntegerSequence(terms, label=f"affine(q={q if const else tuple(qs)})",
                           rule=rule)


def naturals(count: int) -> IntegerSequence:
    return IntegerSequence(list(range(1, count + 1)), label="naturals",
                           rule=lambda ts: ts[-1] + 1)


# ---------------------------------------------------------------------------
# Euclidean decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PkRkDecomposition:
    """``n_{k+1} = p n_k + r`` with the Euclidean choice ``0 <= r < n_k``."""

    k: int
    p: int
    r: int


def decompose_pk_rk(seq: IntegerSequence, k: int) -> PkRkDecomposition:
    """The Euclidean decomposition of ``n_{k+1}`` by ``n_k``."""
    p, r = divmod(seq.term(k + 1), seq.term(k))
    return PkRkDecomposition(k=k, p=p, r=r)


# ---------------------------------------------------------------------------
# two-sided splitter
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Pow2:
    """Exact dyadic rational ``2^log2`` (arbitrary integer exponent)."""

    log2: int

    def __mul__(self, other: "Pow2") -> "Pow2":
        return Pow2(self.log2 + other.log2)

    def __str__(self) -> str:
        return f"2^{self.log2}"


@dataclass(frozen=True)
class SplitBlock:
    """Index block ``(start-1, end]`` with constant a and b values."""

    n: int                 # 1-based block number; parity decides the side
    side: str              # "A" (even n) or "B" (odd n)
    length_log2: int       # block length is 2^length_log2
    a: Pow2
    b: Pow2
    start: int | None      # explicit endpoints, when small enough to hold
    end: int | None

    @property
    def length(self) -> int:
        if self.length_log2 > _ENDPOINT_BIT_GUARD:
            raise OverflowError("block too long to materialize")
        return 1 << self.length_log2


@dataclass
class SplitterOutput:
    """Alternating two-sided block structure over indices 1..p_n."""

    blocks: list[SplitBlock]

    def side_indices(self, side: str, max_index: int) -> list[int]:
        """Indices of the given side not exceeding ``max_index``."""
        out = []
        for blk in self.blocks:
            if blk.start is None or blk.start > max_index:
                break
            if blk.side == side:
                out.extend(range(blk.start, min(blk.end, max_index) + 1))
        return out

    # -- exact invariant checks (integer exponent arithmetic only) -------

    def check_monotone(self) -> bool:
        """a and b nonincreasing block to block (constant within blocks)."""
        for u, v in zip(self.blocks, self.blocks[1:]):
            if v.a.log2 > u.a.log2 or v.b.log2 > u.b.log2:
                return False
        return True

    def check_own_side_sums(self) -> bool:
        """sum of a >= 1/2 on B blocks, sum of b >= 1/2 on A blocks."""
        for blk in self.blocks:
            v = blk.a if blk.side == "B" else blk.b
            if blk.length_log2 + v.log2 < -1:     # 2^m * 2^e >= 2^-1
                return False
        return True

    def check_cube_root_sums(self) -> bool:
        """sum of the opposite letter's cube roots on block n <= 2^-n.

        Compared through cubes: L * v^(1/3) <= 2^-n iff L^3 v <= 2^-3n.
        """
        for blk in self.blocks:
            v = blk.b if blk.side == "B" else blk.a
            if 3 * blk.length_log2 + v.log2 > -3 * blk.n:
                return False
        return True

    def check_partition(self) -> bool:
        """Blocks tile [1, p_n] contiguously with alternating sides."""
        prev_end = 0
        for blk in self.blocks:
            want = "B" if blk.n % 2 else "A"
            if blk.side != want:
                return False
            if blk.start is not None:
                if blk.start != prev_end + 1 or blk.end != blk.start + blk.length - 1:
                    return False
                prev_end = blk.end
            elif blk.end is not None:
                return False
        return True

    def check_all(self) -> dict[str, bool]:
        return {
            "monotone": self.check_monotone(),
            "own_side_sums": self.check_own_side_sums(),
            "cube_root_sums": self.check_cube_root_sums(),
            "partition": self.check_partition(),
        }


def fact42_split(block_count: int) -> SplitterOutput:
    """Deterministic minimal two-sided splitter.

    Seeds: block 1 = {1} on side B with a_1 = 1/2, b_1 = 1/8.  At each
    even stage n the block is the shortest one whose b-sum (b copied from
    the previous block) reaches 1/2, and a is the largest constant value,
    not exceeding its predecessor, whose cube-root block sum stays within
    2^-n; odd stages swap the letters.  Every quantity stays an exact
    power of two: the shortest length against value 2^e is 2^(-e-1), and
    the largest admissible value is min(previous, (2^-n / L)^3).
    """
    if block_count < 1:
        raise ValueError("need at least one block")
    blocks = [SplitBlock(n=1, side="B", length_log2=0,
                         a=Pow2(-1), b=Pow2(-3), start=1, end=1)]
    for n in range(2, block_count + 1):
        prev = blocks[-1]
        if n % 2 == 0:
            m = -prev.b.log2 - 1
            a = min(prev.a, Pow2(3 * (-n - m)))
            b = prev.b
            side = "A"
        else:
            m = -prev.a.log2 - 1
            a = prev.a
            b = min(prev.b, Pow2(3 * (-n - m)))
            side = "B"
        m = max(m, 0)
        if prev.end is not None and m <= _ENDPOINT_BIT_GUARD:
            start = prev.end + 1
            end = prev.end + (1 << m)
        else:
            start = end = None
        blocks.append(SplitBlock(n=n, side=side, length_log2=m, a=a, b=b,
                                 start=start, end=end))
    return SplitterOutput(blocks)
