"""Integer sequence construction and exact combinatorial bookkeeping.

The experiments downstream all consume strictly increasing sequences of
positive integers.  This module builds the families used there:

* chained-divisibility sequences ``n_{k+1} = q_k n_k`` (every term divides
  every later term), the natural habitat for rigidity constructions;
* affine recursions ``n_{k+1} = q_k n_k + 1``;
* finite block unions ``{p_j, 2 p_j, ..., j p_j}`` (and their +1 shifts),
  which separate density-style conditions from separation-style ones;
* canonical Euclidean decompositions ``n_{k+1} = p_k n_k + r_k`` feeding
  the cutting-and-stacking builder;
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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .certificates import SCHEMA

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
                 rule: Callable[[list[int]], int] | None = None,
                 generator: dict | None = None,
                 meta: dict | None = None):
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
        self.generator = generator
        self.meta = dict(meta or {})
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

    @property
    def normalized(self) -> bool:
        return self._terms[0] == 1

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

    def materialized(self) -> list[int]:
        return list(self._terms)

    def __repr__(self) -> str:
        head = ", ".join(str(t) for t in self._terms[:6])
        more = ", ..." if len(self._terms) > 6 else ""
        return f"IntegerSequence({self.label}: {head}{more})"

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "label": self.label,
            "terms": [str(t) for t in self._terms],
            "divisibility": self.divisibility,
            "normalized": self.normalized,
            "generator": self.generator,
            "meta": {k: (str(v) if isinstance(v, int) and abs(v) >= 2 ** 53 else v)
                     for k, v in self.meta.items()},
        }

    @staticmethod
    def from_json_dict(data: dict) -> "IntegerSequence":
        terms = [int(t) for t in data["terms"]]
        gen = data.get("generator")
        rule = _rule_from_generator(gen) if gen else None
        return IntegerSequence(
            terms, label=data.get("label", "seq"),
            divisibility=bool(data.get("divisibility", False)),
            rule=rule, generator=gen, meta=data.get("meta") or {})


def _rule_from_generator(gen: dict) -> Callable[[list[int]], int] | None:
    kind = gen.get("kind")
    if kind == "divisibility":
        ratios = [int(r) for r in gen.get("ratios", [])]

        def rule(terms: list[int]) -> int:
            k = len(terms) - 1
            if k >= len(ratios):
                raise IndexError("ratio list exhausted")
            return terms[-1] * ratios[k]
        return rule
    if kind == "triangular_pow2":
        return lambda terms: terms[-1] * 2 ** len(terms)
    if kind == "recursive_q":
        qs = [int(q) for q in gen.get("q", [])]
        const = gen.get("q_const")

        def rule(terms: list[int]) -> int:
            k = len(terms) - 1
            q = qs[k] if k < len(qs) else (int(const) if const else None)
            if q is None:
                raise IndexError("multiplier list exhausted")
            return q * terms[-1] + 1
        return rule
    if kind == "naturals":
        return lambda terms: terms[-1] + 1
    return None


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
        gen = None
    else:
        rule = _rule_from_generator({"kind": "divisibility", "ratios": list(ratios)})
        gen = {"kind": "divisibility", "base": base, "ratios": [int(r) for r in ratios]}
    return IntegerSequence(terms, label=f"div(base={base})", divisibility=True,
                           rule=rule, generator=gen)


def triangular_pow2(count: int) -> IntegerSequence:
    """The divisibility sequence ``n_k = 2^{k(k+1)/2}`` (ratios 2^{k+1})."""
    seq = gen_divisibility(1, lambda k: 2 ** (k + 1), count)
    seq.label = "2^(k(k+1)/2)"
    seq.generator = {"kind": "triangular_pow2"}
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
    gen = ({"kind": "recursive_q", "q_const": int(q)} if const
           else {"kind": "recursive_q", "q": qs})
    return IntegerSequence(terms, label=f"affine(q={q if const else tuple(qs)})",
                           rule=_rule_from_generator(gen), generator=gen)


def gen_remark_counterexample(p: Sequence[int], shifted: bool = False,
                              count: int | None = None) -> IntegerSequence:
    """Union of blocks ``{p_j, 2 p_j, ..., j p_j}`` (j = 1-based position).

    Requires ``j * p_j < p_{j+1}`` so blocks stay ordered and disjoint.
    With ``shifted`` every element is increased by 1.
    """
    p = [int(x) for x in p]
    if not p or any(x < 1 for x in p):
        raise ValueError("p must be positive integers")
    for j, (a, b) in enumerate(zip(p, p[1:]), start=1):
        if j * a >= b:
            raise ValueError(f"block overlap: {j}*{a} >= {b}")
    terms: list[int] = []
    for j, pj in enumerate(p, start=1):
        terms.extend(m * pj for m in range(1, j + 1))
    if shifted:
        terms = [t + 1 for t in terms]
    if count is not None:
        terms = terms[:count]
    label = f"blocks(p={tuple(p)}{', shifted' if shifted else ''})"
    return IntegerSequence(terms, label=label,
                           meta={"blocks": [min(j, len(terms)) for j in range(1, len(p) + 1)],
                                 "shifted": shifted})


def naturals(count: int) -> IntegerSequence:
    return IntegerSequence(list(range(1, count + 1)), label="naturals",
                           rule=lambda ts: ts[-1] + 1,
                           generator={"kind": "naturals"})


# ---------------------------------------------------------------------------
# Euclidean decomposition and shifts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PkRkDecomposition:
    """``n_{k+1} = p n_k + r`` with the canonical Euclidean choice."""

    k: int
    n_k: int
    n_next: int
    p: int
    r: int
    canonical: bool
    ratio_partial_sum: Fraction  # sum_{j<=k} r_j / (p_j n_j)

    @property
    def p_ge_3(self) -> bool:
        return self.p >= 3

    def __post_init__(self):
        if self.p * self.n_k + self.r != self.n_next:
            raise ValueError("decomposition identity violated")
        if self.canonical and not (0 <= self.r < self.n_k):
            raise ValueError("canonical decomposition requires 0 <= r < n_k")


def decompose_pk_rk(seq: IntegerSequence, k: int) -> PkRkDecomposition:
    """Canonical decomposition at index k, with the running ratio sum."""
    total = Fraction(0)
    dec = None
    for j in range(k + 1):
        n_j, n_j1 = seq.term(j), seq.term(j + 1)
        p, r = divmod(n_j1, n_j)
        total += Fraction(r, p * n_j)
        if j == k:
            dec = PkRkDecomposition(k=j, n_k=n_j, n_next=n_j1, p=p, r=r,
                                    canonical=True, ratio_partial_sum=total)
    assert dec is not None
    return dec


def shift_set(seq: IntegerSequence, p: int) -> IntegerSequence:
    """``{n_k - p} ∩ Z_{>=1}``, sorted; records the first surviving index."""
    if p < 0:
        raise ValueError("shift must be nonnegative")
    terms = []
    k0 = None
    for k in range(len(seq)):
        v = seq.term(k) - p
        if v >= 1:
            if k0 is None:
                k0 = k
            terms.append(v)
    if not terms:
        raise ValueError(f"no term of {seq.label} exceeds the shift {p}")
    src, base = seq, k0

    def rule(ts: list[int]) -> int:
        return src.term(base + len(ts)) - p

    return IntegerSequence(terms, label=f"{seq.label} - {p}",
                           rule=rule if seq._rule is not None else None,
                           meta={"k0": k0, "shift": p})


# ---------------------------------------------------------------------------
# two-sided splitter
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Pow2:
    """Exact dyadic rational ``2^log2`` (arbitrary integer exponent)."""

    log2: int

    def __mul__(self, other: "Pow2") -> "Pow2":
        return Pow2(self.log2 + other.log2)

    def cube(self) -> "Pow2":
        return Pow2(3 * self.log2)

    def as_fraction(self) -> Fraction:
        if abs(self.log2) > _ENDPOINT_BIT_GUARD:
            raise OverflowError(f"2^{self.log2} too large to materialize")
        return Fraction(2) ** self.log2

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

    def block_for_index(self, k: int) -> SplitBlock:
        for blk in self.blocks:
            if blk.start is None or blk.end is None:
                break
            if blk.start <= k <= blk.end:
                return blk
        raise IndexError(f"index {k} outside materialized blocks")

    def a_at(self, k: int) -> Pow2:
        return self.block_for_index(k).a

    def b_at(self, k: int) -> Pow2:
        return self.block_for_index(k).b

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

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "two-sided-split",
            "blocks": [{
                "n": blk.n, "side": blk.side,
                "length": str(Pow2(blk.length_log2)),
                "a": str(blk.a), "b": str(blk.b),
                "start": str(blk.start) if blk.start is not None
                and blk.start.bit_length() <= 4096 else None,
                "end": str(blk.end) if blk.end is not None
                and blk.end.bit_length() <= 4096 else None,
            } for blk in self.blocks],
            "checks": self.check_all(),
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
