"""Discrete measures on the circle and their certified Fourier analysis.

A measure here is a finite list of rational atoms with positive rational
weights summing to exactly 1.  The Fourier convention is fixed once:

    sigma_hat(n) = integral of lambda^n d sigma = sum_i w_i e^{2 pi i n theta_i}.

Everything downstream only ever uses |sigma_hat(n) - 1|, which is
invariant under conjugating the convention.

Products of few-atom factors are the main construction: the rigid
measures built here are finite stages of an infinite convolution whose
j-th factor moves mass ``t_j`` to the atom ``1/n_{j+1}``.  On a chained
divisibility sequence every factor below the current stage evaluates to
exactly 1 at frequency ``n_k``, and the factors above it are summable in
a geometric chain, which is what the build certificate records.

The Gaussian model at the end realizes a discrete-spectrum stationary
process: ``f = sum_i sqrt(w_i) g_i`` with iid standard complex Gaussians
``g_i`` has ``E f(T^n x) conj(f(x)) = sum_i w_i lambda_i^n = sigma_hat(n)``.
Under the time-n shift the pair ``(f, f_n)`` is circular complex
Gaussian, so its law is fixed by the 2x2 covariance
``[[s, conj gamma], [gamma, s]]`` with ``s = sum w`` and
``gamma = sigma_hat(n)``.  Rectangle overlap probabilities are estimated
by sampling that pair directly.  Every measure here sums to exactly 1, so
``s = 1``, and ``gamma`` is the certified coefficient: the product formula
on a factorization, so a shift costs O(samples + factors) and no atom is
enumerated, or the atom sum on a materialized measure, O(samples + atoms),
the cross-check route.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .certificates import Certificate, frac_str
from .precision import (Bound, CBound, bits_for_power, cis_ends,
                        get_bits, pi_bound, residue, seeded_uniforms,
                        working_bits)
from .seqcore import IntegerSequence


class DiscreteMeasure:
    """Probability measure with finitely many exact rational atoms."""

    __slots__ = ("atoms",)

    def __init__(self, pairs):
        merged: dict[Fraction, Fraction] = {}
        for angle, weight in pairs:
            a, w = Fraction(angle) % 1, Fraction(weight)
            if w < 0:
                raise ValueError("negative weight")
            if w:
                merged[a] = merged.get(a, Fraction(0)) + w
        if sum(merged.values()) != 1:
            raise ValueError("weights must sum to exactly 1")
        self.atoms: list[tuple[Fraction, Fraction]] = sorted(merged.items())

    def __len__(self) -> int:
        return len(self.atoms)

    def __eq__(self, other) -> bool:
        return isinstance(other, DiscreteMeasure) and self.atoms == other.atoms

    def __repr__(self) -> str:
        inner = ", ".join(f"{w}@{a}" for a, w in self.atoms[:3])
        more = ", ..." if len(self.atoms) > 3 else ""
        return f"DiscreteMeasure({inner}{more})"

    def convolve(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        return DiscreteMeasure([(a1 + a2, w1 * w2)
                                for a1, w1 in self.atoms
                                for a2, w2 in other.atoms])

    def denominator_lcm(self) -> int:
        return lcm(*(a.denominator for a, _ in self.atoms))


def convolve(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    return mu.convolve(nu)


def fourier_direct(measure: DiscreteMeasure, n: int) -> CBound:
    """sigma_hat(n) by atom enumeration; exact residue reduction per atom.

    Each atom's ``cis_ends`` at its exact residue are taken by a shift to
    the finest of their units, 2^-e, and weighted over ``W 2^e``, ``W`` the
    lcm of the weight denominators (the weights are positive, so each end
    is the weighted sum of the matching ends).  The rectangle is
    reduced by the gcd of its five integers, so its denominator is the lcm
    of the reduced endpoint denominators.
    """
    W = lcm(*(w.denominator for _, w in measure.atoms))
    rows = [cis_ends(residue(angle, n)) for angle, _ in measure.atoms]
    e = max(row[4] for row in rows)
    sums = [0, 0, 0, 0]
    for (_, w), row in zip(measure.atoms, rows):
        scale = w.numerator * (W // w.denominator) << (e - row[4])
        for c in range(4):      # row is (cos_lo, cos_hi, sin_lo, sin_hi, unit)
            sums[c] += scale * row[c]
    den = W << e
    g = gcd(*sums, den)
    return CBound(*(x // g for x in sums), den // g)


MAX_ATOMS = 1 << 16     # materialize() refuses larger products


class ConvolutionFactorization:
    """Convolution of few-atom factors; Fourier always via the product rule."""

    def __init__(self, factors):
        self.factors: list[DiscreteMeasure] = list(factors)
        if not self.factors:
            raise ValueError("need at least one factor")
        self._periods = [f.denominator_lcm() for f in self.factors]
        self._cache: dict[tuple[int, int, int], CBound] = {}

    def factor_fourier(self, j: int, n: int) -> CBound:
        """Factor j's coefficient at n, memoised on n modulo the factor's
        period and on the working bits."""
        r = n % self._periods[j]
        key = (j, r, get_bits())
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = fourier_direct(self.factors[j], r)
        return hit

    def fourier(self, n: int) -> CBound:
        """sigma_hat(n) by the product rule."""
        return CBound.prod(self.factor_fourier(j, n) for j in range(len(self.factors)))

    def atom_count(self) -> int:
        """Product of the factor sizes: the atom count of ``materialize()``
        when no two sums of one atom per factor agree mod 1, an upper bound
        otherwise.  Every Kahane build is exact here: its consecutive ratios
        are at least 2, so the subset sums of the ``1/n_{j+1}`` are distinct
        mod 1."""
        return math.prod(len(f) for f in self.factors)

    def __len__(self) -> int:
        """``atom_count()``; ``len()`` raises OverflowError from 2^63 on."""
        return self.atom_count()

    def denominator_lcm(self) -> int:
        return lcm(*self._periods)

    def materialize(self) -> DiscreteMeasure:
        count = self.atom_count()
        if count > MAX_ATOMS:
            raise ValueError(f"materialization would enumerate up to {count} atoms")
        out = self.factors[0]
        for f in self.factors[1:]:
            out = out.convolve(f)
        return out


# ---------------------------------------------------------------------------
# rigid measures on divisibility sequences
# ---------------------------------------------------------------------------

def _looks_summable(a: list[Fraction]) -> bool:
    """Tail comparison against the harmonic series: flags (j+1) a_j
    strictly decreasing over the tail, which spares 1/(j+1) itself."""
    if len(a) < 4:
        return False
    tail = range(max(0, len(a) - 1 - max(3, (len(a) - 1) // 2)), len(a) - 1)
    return all((j + 2) * a[j + 1] < (j + 1) * a[j] for j in tail)


class KahaneFactorization(ConvolutionFactorization):
    """Finite stage of the rigid-measure convolution, with its build certificate."""

    def __init__(self, factors, seq: IntegerSequence, targets: list[Fraction],
                 t: list[Fraction], certificate: Certificate):
        super().__init__(factors)
        self.seq = seq
        self.targets = targets
        self.t = t
        self.certificate = certificate

    def chain_term(self, j: int, k: int) -> tuple[Bound, Bound]:
        """Certified (|factor_j(n_k) - 1|, arc bound 2 pi t_j n_k / n_{j+1}).

        The factor frequency ratio can be tiny (n_{j+1} astronomically
        large), where the chord and the arc agree to relative order d^2;
        working precision is raised past that margin so the comparison
        certifies instead of drowning in enclosure width.
        """
        n_k, n_next = self.seq.term(k), self.seq.term(j + 1)
        with working_bits(max(get_bits(), bits_for_power(n_next))):
            lhs = self.factor_fourier(j, n_k).dist_to_one()
            rhs = pi_bound().scale(2 * self.t[j] * Fraction(n_k, n_next))
        return lhs, rhs


def kahane_build(seq: IntegerSequence, a, N: int) -> KahaneFactorization:
    """Build the N-stage rigid measure nu_0 * ... * nu_{N-1}.

    Factor j is ``(1 - t_j) delta_0 + t_j delta_{1/n_{j+1}}`` with
    ``t_j = min(1/2, a_j / (4 pi))``; the division by ``4 pi`` is taken
    through a certified rational lower bound so weights stay exact while
    the arc chain is only strengthened.  The certificate records, all by
    exact rational arithmetic:

    * factors below stage k see an integer frequency and equal 1 exactly,
      because consecutive terms divide each other (``seq.divisibility``);
    * the arc chain ``sum_{j >= k} 2 pi t_j n_k / n_{j+1} <= a_k`` for
      every ``k < N`` (uses consecutive ratios >= 2);
    * the continuity proxy: the largest atom mass is the product of the
      ``1 - t_j``.
    """
    if not seq.divisibility:
        raise ValueError("rigid construction needs a chained divisibility sequence")
    if N < 1:
        raise ValueError("need at least one stage")
    targets = [Fraction(x) for x in (a(j) for j in range(N))] if callable(a) \
        else [Fraction(x) for x in a]
    if len(targets) < N:
        raise ValueError(f"need {N} targets, got {len(targets)}")
    if any(not (0 < targets[j] <= 1) for j in range(N)):
        raise ValueError("targets must lie in (0, 1]")
    if any(targets[j + 1] > targets[j] for j in range(N - 1)):
        raise ValueError("targets must be nonincreasing")
    terms = seq.prefix(N + 1)
    # divisibility + strict monotonicity force every ratio >= 2, which is
    # exactly what the geometric arc chain below needs
    if _looks_summable(targets[:N]):
        warnings.warn("rigidity targets decay geometrically; their sum looks "
                      "finite, so the limiting measure may fail continuity",
                      RuntimeWarning, stacklevel=2)

    inv4pi = Fraction(1) / (4 * pi_bound().hi)        # rational lower bound
    two_pi_hi = 2 * pi_bound().hi                     # rational upper bound
    t = [min(Fraction(1, 2), targets[j] * inv4pi) for j in range(N)]
    factors = [DiscreteMeasure([(Fraction(0), 1 - t[j]),
                                (Fraction(1, terms[j + 1]), t[j])])
               for j in range(N)]

    # arc_k = n_k S_k with S_k = S_{k+1} + 2 pi t_k / n_{k+1}, in one
    # backward pass; below stage k, n_{j+1} divides n_k by the
    # seq.divisibility check above, so those factors equal 1 exactly
    arcs, tail = [], Fraction(0)
    for k in reversed(range(N)):
        tail += two_pi_hi * t[k] / terms[k + 1]
        arcs.append(terms[k] * tail)
    arcs.reverse()
    ok = all(arc <= target for arc, target in zip(arcs, targets))
    chains = {f"k={k}": frac_str(arc) for k, arc in enumerate(arcs)}
    max_mass = math.prod(1 - tj for tj in t)
    cert = Certificate(
        kind="rigid-measure-build",
        claim=f"stage-{N} factors satisfy |sigma_hat(n_k) - 1| <= a_k for k < {N}",
        passed=ok, exact=True,
        method="exact residues below stage + rational arc chain above "
               "(chord <= arc, unit-disk product triangle inequality)",
        horizon=N,
        params={"seq": seq.label, "targets": [frac_str(x) for x in targets[:N]],
                "t": [frac_str(x) for x in t]},
        values={"arc_chain": chains, "max_atom_mass": frac_str(max_mass)},
    )
    return KahaneFactorization(factors, seq, targets, t, cert)


def rigidity_check(factored: ConvolutionFactorization, seq: IntegerSequence,
                   a, K: int) -> Certificate:
    """Certify |sigma_hat(n_k) - 1| <= a_k for all k <= K."""
    targets = [Fraction(x) for x in (a(k) for k in range(K + 1))] if callable(a) \
        else [Fraction(x) for x in a]
    if len(targets) < K + 1:
        raise ValueError(f"need {K + 1} targets, got {len(targets)}")
    deviations = []
    first_violation = None
    min_slack = None
    for k in range(K + 1):
        d = factored.fourier(seq.term(k)).dist_to_one()
        deviations.append(d)
        slack = targets[k] - d.hi
        if min_slack is None or slack < min_slack[0]:
            min_slack = (slack, k)
        if slack < 0 and first_violation is None:
            first_violation = k
    values = {"min_slack": frac_str(min_slack[0]), "tightest_k": min_slack[1],
              "max_deviation": max(deviations, key=lambda b: b.hi)}
    if first_violation is not None:
        values["first_violation"] = first_violation
    return Certificate(
        kind="rigidity-check",
        claim=f"|sigma_hat(n_k) - 1| <= a_k for k <= {K} on {seq.label}",
        passed=first_violation is None,
        exact=all(d.is_exact for d in deviations),
        method="certified product-formula Fourier evaluation",
        horizon=K,
        params={"targets": [frac_str(x) for x in targets[:K + 1]]},
        bounds={f"dev_k{k}": d for k, d in enumerate(deviations)},
        values=values,
    )


# ---------------------------------------------------------------------------
# Gaussian rectangle overlap
# ---------------------------------------------------------------------------

@dataclass
class GaussianRectangleModel:
    measure: DiscreteMeasure | ConvolutionFactorization
    rectangle: tuple[float, float, float, float]
    seed: int = 0

    def __post_init__(self):
        a, b, c, d = self.rectangle
        if not (a < b and c < d):
            raise ValueError("rectangle is degenerate")


@dataclass
class GaussOverlapEstimate:
    n: int
    samples: int
    p_in: float
    p_in_se: float
    sym_diff: float
    sym_diff_se: float
    second_moment: float          # mean |f|^2
    second_moment_se: float
    second_moment_closed: float   # s = sum w = 1
    shift_moment: float           # mean |f_n - f|^2
    shift_moment_se: float
    shift_moment_closed: float    # sum w |lambda^n - 1|^2 = 2 (1 - Re gamma)


@lru_cache(maxsize=1)
def _normals(seed: int, samples: int) -> np.ndarray:
    """The standard complex normals (g_1, g_2), one row each, made by
    Box-Muller from 4 * ``samples`` uniforms u, v of
    ``precision.seeded_uniforms(seed, .)``: g = sqrt(-ln u) (cos 2 pi v +
    i sin 2 pi v).  The draw does not depend on the shift, so every shift
    index of a run shares one read-only array.  numpy loads with the draw
    and in the sampler alone: the certified routes of this module need
    none."""
    import numpy as np
    u, v = seeded_uniforms(seed, 4 * samples).reshape(2, 2, samples)
    r, t = np.sqrt(-np.log(u)), 2 * np.pi * v
    g = np.empty((2, samples), dtype=np.complex128)
    g.real = r * np.cos(t)
    g.imag = r * np.sin(t)
    g.flags.writeable = False
    return g


def _inside(z: np.ndarray, rectangle) -> np.ndarray:
    a, b, c, d = rectangle
    return (a < z.real) & (z.real < b) & (c < z.imag) & (z.imag < d)


def _prop(mask: np.ndarray) -> tuple[float, float]:
    p = int(mask.sum()) / mask.size
    return p, math.sqrt(p * (1 - p) / mask.size)


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    return float(x.mean()), float(x.std()) / math.sqrt(x.size)


@lru_cache(maxsize=1)
def _field(seed: int, samples: int, s: float, rectangle: tuple):
    """``f = sqrt(s) g_1`` and what the sampler reads of f alone: the
    rectangle mask, p_in and its standard error, and mean |f|^2 and its
    standard error.  None of it depends on the shift, so every shift index
    with one ``(seed, samples, s, rectangle)`` shares it, read-only."""
    f = math.sqrt(s) * _normals(seed, samples)[0]
    inside = _inside(f, rectangle)
    f.flags.writeable = inside.flags.writeable = False
    return f, inside, _prop(inside), _mean_se(abs(f) ** 2)


def gauss_rectangle_overlap_mc(model: GaussianRectangleModel, n: int,
                               samples: int) -> GaussOverlapEstimate:
    """Estimate rectangle overlap under the time-n shift of the model field.

    The pair ``(f, f_n)`` is circular complex Gaussian with
    ``E|f|^2 = E|f_n|^2 = s = sum w`` and ``E f_n conj(f) = gamma =
    sum w lambda^n``, so it is drawn from that 2x2 covariance directly:
    ``f = sqrt(s) g_1`` and ``f_n = (gamma/s) f + sqrt(s - |gamma|^2/s) g_2``
    with ``g_1, g_2`` the standard complex normals of ``_normals``, drawn
    from ``random.Random(model.seed)``.  The normals do not depend on n:
    they are drawn once per ``(seed, samples)`` and shared, read-only, by
    every call with that pair, so the estimates at each n are those of a
    fresh generator.  Nor does f, its rectangle mask, p_in or the second
    moment (``_field``): an index that repeats ``(seed, samples, s,
    rectangle)`` computes only f_n and what reads it.

    Every measure is a probability measure, so ``s = 1``, and ``gamma``
    is its certified coefficient: the product ``measure.fourier(n)`` on a
    ``ConvolutionFactorization``, O(samples + factors), the primary route,
    or the atom sum ``fourier_direct`` on a ``DiscreteMeasure``,
    O(samples + atoms), the cross-check route.  Its exact midpoints give
    ``rho = gamma``, ``1 - |gamma|^2`` and the closed shift moment, which
    is ``2 (1 - Re gamma)`` for unit-modulus atoms, without the float
    cancellation of deep stages; each is rounded to a float once.
    """
    import numpy as np
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    measure = model.measure
    gamma = (measure.fourier(n) if isinstance(measure, ConvolutionFactorization)
             else fourier_direct(measure, n))
    re_lo, re_hi, im_lo, im_hi, den = (gamma.re_lo, gamma.re_hi, gamma.im_lo,
                                       gamma.im_hi, gamma.den)
    lo2, hi2 = gamma.abs2_ends()
    # the midpoints of gamma, 1 - |gamma|^2 and 2 (1 - Re gamma) as exact
    # quotients of ints; int / int rounds once, as float(Fraction)
    s = 1.0
    rho = complex((re_lo + re_hi) / (2 * den), (im_lo + im_hi) / (2 * den))
    cond_var = max((2 * den * den - lo2 - hi2) / (2 * den * den), 0.0)
    shift_closed = (2 * den - re_lo - re_hi) / den

    rectangle = tuple(float(x) for x in model.rectangle)
    f, inside, (p_in, p_in_se), (m2, m2_se) = _field(model.seed, samples, s,
                                                      rectangle)
    f_n = rho * f + math.sqrt(cond_var) * _normals(model.seed, samples)[1]
    sym, sym_se = _prop(inside ^ _inside(f_n, rectangle))
    shm, shm_se = _mean_se(np.abs(f_n - f) ** 2)
    return GaussOverlapEstimate(
        n=n, samples=samples,
        p_in=p_in, p_in_se=p_in_se,
        sym_diff=sym, sym_diff_se=sym_se,
        second_moment=m2, second_moment_se=m2_se,
        second_moment_closed=s,
        shift_moment=shm, shift_moment_se=shm_se,
        shift_moment_closed=shift_closed,
    )
