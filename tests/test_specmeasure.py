import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recurlab.certificates import frac_str
from recurlab.precision import Bound, pi_bound, residue, working_bits
from recurlab.seqcore import gen_divisibility, gen_recursive_q, triangular_pow2
from recurlab.specmeasure import (ConvolutionFactorization, DiscreteMeasure,
                                  GaussianRectangleModel, _normals, convolve,
                                  fourier_direct, gauss_rectangle_overlap_mc,
                                  kahane_build, rigidity_check)

from pair_reference import abs2, atom_sum, dist_to_one, product_formula

DELTA0 = DiscreteMeasure([(0, 1)])
HALF = DiscreteMeasure([(0, F(1, 2)), (F(1, 2), F(1, 2))])


def pow2_seq(count=12):
    return gen_divisibility(1, (lambda k: 2), count)


def harmonic(j):
    return F(1, j + 1)


# ---------------------------------------------------------------------------
# measures and convolution
# ---------------------------------------------------------------------------

def test_measure_validation():
    with pytest.raises(ValueError, match="sum"):
        DiscreteMeasure([(0, F(1, 2))])
    with pytest.raises(ValueError, match="negative"):
        DiscreteMeasure([(0, F(3, 2)), (F(1, 2), F(-1, 2))])
    # collision merging and angle reduction mod 1
    m = DiscreteMeasure([(F(5, 4), F(1, 2)), (F(1, 4), F(1, 4)), (0, F(1, 4))])
    assert m.atoms == [(F(0), F(1, 4)), (F(1, 4), F(3, 4))]


def test_convolve_identity_and_idempotent():
    assert convolve(DELTA0, HALF) == HALF
    assert convolve(HALF, HALF) == HALF


def test_convolve_quarter_eighth():
    q = DiscreteMeasure([(0, F(1, 2)), (F(1, 4), F(1, 2))])
    e = DiscreteMeasure([(0, F(1, 2)), (F(1, 8), F(1, 2))])
    out = convolve(q, e)
    assert out.atoms == [(F(0), F(1, 4)), (F(1, 8), F(1, 4)),
                         (F(1, 4), F(1, 4)), (F(3, 8), F(1, 4))]


small_measures = st.lists(
    st.tuples(st.fractions(min_value=0, max_value=1, max_denominator=8),
              st.integers(min_value=1, max_value=4)),
    min_size=1, max_size=3).map(
    lambda raw: DiscreteMeasure([(a, F(w, sum(x[1] for x in raw)))
                                 for a, w in raw]))


@settings(max_examples=40)
@given(small_measures, small_measures, small_measures)
def test_convolution_commutes_and_associates(a, b, c):
    assert convolve(a, b) == convolve(b, a)
    assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))


# ---------------------------------------------------------------------------
# fourier coefficients
# ---------------------------------------------------------------------------

def test_fourier_point_mass_and_half():
    for n in (0, 1, 7, 1000):
        z = fourier_direct(DELTA0, n)
        assert z.re.is_exact and z.re.lo == 1 and z.im.lo == 0
    assert fourier_direct(HALF, 3).re.lo == 0
    assert fourier_direct(HALF, 4).re.lo == 1


def test_fourier_two_atom_quarter_weight():
    m = DiscreteMeasure([(0, F(3, 4)), (F(1, 8), F(1, 4))])
    z = fourier_direct(m, 4)
    assert z.re.is_exact and z.re.lo == F(1, 2) and z.im.lo == 0


@settings(max_examples=30)
@given(st.lists(small_measures, min_size=1, max_size=4),
       st.integers(min_value=0, max_value=16))
def test_product_formula_matches_direct(factors, n):
    fact = ConvolutionFactorization(factors)
    via_product = fact.fourier(n)
    via_atoms = fourier_direct(fact.materialize(), n)
    assert via_product.re.intersects(via_atoms.re)
    assert via_product.im.intersects(via_atoms.im)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.fractions(min_value=0, max_value=1,
                                       max_denominator=10 ** 4),
                          st.integers(min_value=1, max_value=10 ** 6)),
                min_size=1, max_size=6),
       st.one_of(st.integers(0, 10 ** 4), st.integers(2 ** 100, 2 ** 200)),
       st.sampled_from([53, 128]))
def test_fourier_direct_matches_the_fraction_atom_sum(raw, n, bits):
    total = sum(w for _, w in raw)
    m = DiscreteMeasure([(a, F(w, total)) for a, w in raw])
    with working_bits(bits):
        z = fourier_direct(m, n)
        assert (z.re, z.im) == atom_sum(m, n)


_factorizations = st.lists(
    st.lists(st.tuples(st.fractions(min_value=0, max_value=1,
                                    max_denominator=10 ** 3),
                       st.integers(min_value=1, max_value=10 ** 4)),
             min_size=1, max_size=3).map(
        lambda raw: DiscreteMeasure([(a, F(w, sum(x[1] for x in raw)))
                                     for a, w in raw])),
    min_size=1, max_size=6).map(ConvolutionFactorization)
_frequencies = st.one_of(st.integers(0, 10 ** 4), st.integers(2 ** 60, 2 ** 100))
_bits = st.sampled_from([53, 96, 128, 200])


@settings(max_examples=60, deadline=None)
@given(_factorizations, _frequencies, _bits)
def test_integer_product_formula_matches_the_fraction_fold(fact, n, bits):
    with working_bits(bits):
        z = fact.fourier(n)
        assert (z.re, z.im) == product_formula(fact, n)


@settings(max_examples=30, deadline=None)
@given(_factorizations, st.integers(2, 5), _bits)
def test_rigidity_deviations_match_the_fraction_fold(fact, ratio, bits):
    seq = gen_divisibility(1, lambda k: ratio, 6)
    with working_bits(bits):
        cert = rigidity_check(fact, seq, [F(1, 2)] * 6, 5)
        for k in range(6):
            ref = dist_to_one(product_formula(fact, seq.term(k)))
            assert cert.bounds[f"dev_k{k}"] == ref, k


def _bound_route_estimate(model, n, samples):
    """Reference: the sampler on the factorization route as the Bound
    arithmetic of the product's pair of Bounds gave it.  It takes the
    module's draw, so the two gamma routes are compared, not two
    generators."""
    gamma = product_formula(model.measure, n)
    rho = complex(float(gamma[0].mid), float(gamma[1].mid))
    cond_var = max(float((Bound.exact(1) - abs2(gamma)).mid), 0.0)
    shift_closed = float((Bound.exact(1) - gamma[0]).scale(2).mid)
    g = _normals(model.seed, samples)
    f = g[0]
    f_n = rho * f + math.sqrt(cond_var) * g[1]
    a, b, c, d = model.rectangle
    inside = (a < f.real) & (f.real < b) & (c < f.imag) & (f.imag < d)
    inside_n = (a < f_n.real) & (f_n.real < b) & (c < f_n.imag) & (f_n.imag < d)
    return {"p_in": np.count_nonzero(inside) / samples,
            "sym_diff": np.count_nonzero(inside ^ inside_n) / samples,
            "second_moment": float((np.abs(f) ** 2).mean()),
            "shift_moment": float((np.abs(f_n - f) ** 2).mean()),
            "shift_moment_closed": shift_closed}


@settings(max_examples=25, deadline=None)
@given(_factorizations, _frequencies, st.integers(0, 2 ** 31))
def test_gauss_integer_route_matches_the_bound_route(fact, n, seed):
    model = GaussianRectangleModel(fact, RECT, seed=seed)
    est = gauss_rectangle_overlap_mc(model, n, 1000)
    for key, value in _bound_route_estimate(model, n, 1000).items():
        assert getattr(est, key) == value, key


def test_gauss_estimates_do_not_depend_on_call_order():
    seq = triangular_pow2(13)
    fact = kahane_build(seq, harmonic, 10)
    indices = [seq.term(k) for k in (2, 3, 4, 5)] + [1, 3]
    model = GaussianRectangleModel(fact, RECT, seed=23)
    forward = [gauss_rectangle_overlap_mc(model, n, 2000) for n in indices]
    other = GaussianRectangleModel(fact, RECT, seed=24)
    gauss_rectangle_overlap_mc(other, indices[0], 2000)
    gauss_rectangle_overlap_mc(model, indices[0], 3000)
    backward = [gauss_rectangle_overlap_mc(model, n, 2000) for n in reversed(indices)]
    assert forward == backward[::-1]
    fresh = GaussianRectangleModel(kahane_build(seq, harmonic, 10), RECT, seed=23)
    assert [gauss_rectangle_overlap_mc(fresh, n, 2000) for n in indices] == forward


def test_gauss_normals_are_seeded_standard_complex():
    samples = 100_000
    g = _normals(11, samples)
    assert np.array_equal(g, _normals.__wrapped__(11, samples))
    assert not np.array_equal(g, _normals(12, samples))
    # Re g and Im g are independent N(0, 1/2), so E|g|^2 = 1
    for x, mean, var in ((g.real, 0.0, 0.5), (g.imag, 0.0, 0.5),
                         (np.abs(g) ** 2, 1.0, 1.0)):
        assert np.all(np.abs(x.mean(axis=1) - mean) < 4 * np.sqrt(var / samples))
    for x in (g.real, g.imag):
        # Var of x^2 for x ~ N(0, 1/2) is 2 (1/2)^2 = 1/2
        assert np.all(np.abs(x.var(axis=1) - 0.5) < 4 * np.sqrt(0.5 / samples))


def test_gauss_shared_draw_is_read_only():
    model = GaussianRectangleModel(kahane_build(pow2_seq(), harmonic, 4), RECT,
                                   seed=31)
    gauss_rectangle_overlap_mc(model, 3, 1000)
    g = _normals(31, 1000)
    assert g.shape == (2, 1000) and not g.flags.writeable
    with pytest.raises(ValueError):
        g[0, 0] = 0


def test_materialize_refuses_past_2_63_atoms():
    fact = ConvolutionFactorization([HALF] * 64)
    assert fact.atom_count() == 2 ** 64
    with pytest.raises(ValueError, match="atoms"):
        fact.materialize()


def test_fourier_cache_follows_working_precision():
    fact = ConvolutionFactorization([DiscreteMeasure([(0, F(1, 2)),
                                                      (F(1, 7), F(1, 2))])])
    with working_bits(53):
        coarse = fact.fourier(3)
    with working_bits(256):
        fine = fact.fourier(3)
        assert fine == fourier_direct(fact.factors[0], 3)
    assert fine.re.width < coarse.re.width


# ---------------------------------------------------------------------------
# rigid measures
# ---------------------------------------------------------------------------

def test_kahane_build_structure():
    kah = kahane_build(pow2_seq(), harmonic, 6)
    assert kah.certificate.passed and kah.certificate.exact
    assert len(kah.factors) == 6
    for j, factor in enumerate(kah.factors):
        assert factor.atoms[0][0] == 0
        assert factor.atoms[1][0] == F(1, 2 ** (j + 1))
        assert factor.atoms[1][1] == kah.t[j]
    # weights stay exact and rigorously under the arc budget
    assert all(tj <= harmonic(j) / 12 for j, tj in enumerate(kah.t))


def test_kahane_rejects_bad_inputs():
    with pytest.raises(ValueError, match="divisibility"):
        kahane_build(gen_recursive_q(3, 8), harmonic, 4)
    with pytest.raises(ValueError, match="nonincreasing"):
        kahane_build(pow2_seq(), [F(1, 4), F(1, 2), F(1, 2), F(1, 2)], 4)
    with pytest.raises(ValueError, match="0, 1"):
        kahane_build(pow2_seq(), [F(2), F(1), F(1), F(1)], 4)


def test_kahane_divergence_warning():
    with pytest.warns(RuntimeWarning, match="continuity"):
        kahane_build(pow2_seq(), lambda j: F(1, 2 ** j), 8)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kahane_build(pow2_seq(), harmonic, 8)   # harmonic must not warn


def test_kahane_stage12_rigidity_and_exact_tail():
    tri = triangular_pow2(15)
    kah = kahane_build(tri, harmonic, 12)
    cert = rigidity_check(kah, tri, harmonic, 14)
    assert cert.passed
    for k in (12, 13, 14):
        dev = cert.bounds[f"dev_k{k}"]
        assert dev.is_exact and dev.lo == 0    # all factors see integer frequencies


def _quadratic_arc_chain(kah, terms, N):
    # the chain as the certificate states it, one sum per k
    two_pi_hi = 2 * pi_bound().hi
    assert all(terms[k] % terms[j + 1] == 0 for k in range(N) for j in range(k))
    return {f"k={k}": sum((two_pi_hi * kah.t[j] * F(terms[k], terms[j + 1])
                           for j in range(k, N)), F(0)) for k in range(N)}


@pytest.mark.parametrize("seq, N", [
    (triangular_pow2(2), 1), (triangular_pow2(3), 2), (triangular_pow2(9), 8),
    (triangular_pow2(41), 40), (gen_divisibility(3, [2, 5, 3, 7, 2, 11, 4], 8), 7)])
def test_kahane_arc_chain_matches_the_quadratic_sum(seq, N):
    kah = kahane_build(seq, harmonic, N)
    arcs = _quadratic_arc_chain(kah, seq.prefix(N + 1), N)
    assert kah.certificate.values["arc_chain"] == {k: frac_str(a) for k, a in arcs.items()}
    assert kah.certificate.passed == all(arcs[f"k={k}"] <= harmonic(k) for k in range(N))


def test_kahane_chain_terms_certified():
    tri = triangular_pow2(10)
    kah = kahane_build(tri, harmonic, 8)
    for j in range(8):
        for k in range(8):
            lhs, rhs = kah.chain_term(j, k)
            if j < k:
                assert lhs.is_exact and lhs.lo == 0
            else:
                assert lhs.hi <= rhs.lo


def test_kahane_chain_term_astronomical_ratio():
    tri = triangular_pow2(14)
    kah = kahane_build(tri, harmonic, 12)
    lhs, rhs = kah.chain_term(11, 0)     # frequency ratio 2^-78
    assert 0 < lhs.hi <= rhs.lo


def test_rigidity_check_failure_reports_first_k():
    fact = ConvolutionFactorization([HALF])
    cert = rigidity_check(fact, pow2_seq(6), [F(1, 2)] * 6, 5)
    assert not cert.passed
    assert cert.values["first_violation"] == 0
    assert cert.bounds["dev_k0"].lo == 1


def test_rigidity_check_trivial_point_mass():
    fact = ConvolutionFactorization([DELTA0])
    cert = rigidity_check(fact, pow2_seq(6), [F(1, 8)] * 6, 5)
    assert cert.passed and cert.exact


# ---------------------------------------------------------------------------
# gaussian rectangle overlap
# ---------------------------------------------------------------------------

RECT = (-0.5, 0.8, -0.6, 0.7)


def small_model(stages=6, seed=42):
    kah = kahane_build(pow2_seq(), harmonic, stages)
    return GaussianRectangleModel(measure=kah.materialize(), rectangle=RECT,
                                  seed=seed)


def test_gauss_guards():
    model = small_model()
    with pytest.raises(ValueError, match="1000"):
        gauss_rectangle_overlap_mc(model, 3, samples=10)
    with pytest.raises(ValueError, match="degenerate"):
        GaussianRectangleModel(measure=HALF, rectangle=(1.0, -1.0, 0.0, 1.0))


def test_gauss_seeded_reproducibility():
    model = small_model()
    a = gauss_rectangle_overlap_mc(model, 3, samples=20_000)
    b = gauss_rectangle_overlap_mc(model, 3, samples=20_000)
    assert (a.p_in, a.sym_diff, a.shift_moment) == (b.p_in, b.sym_diff, b.shift_moment)


def test_gauss_full_period_is_identity():
    # the 4- and 12-stage models of the gauss benchmark: at the full period
    # every atom's residue is 0, so on both routes gamma is the exact 1 (the
    # atom sum of exact cosines, or the exact product) and the shift
    # moment is exactly 0
    models = [small_model()]
    for stages in (4, 12):
        fact = kahane_build(triangular_pow2(13), harmonic, stages)
        models += [GaussianRectangleModel(m, (-0.6, 0.9, -0.7, 0.8), seed=5)
                   for m in (fact.materialize(), fact)]
    for model in models:
        est = gauss_rectangle_overlap_mc(model, model.measure.denominator_lcm(),
                                         samples=5_000)
        assert est.sym_diff == 0.0 and est.shift_moment == 0.0
        assert est.shift_moment_closed == 0.0


def _rho(gamma) -> complex:
    return complex(float(gamma.re.mid), float(gamma.im.mid))


def test_gauss_factorization_route_matches_materialized_atoms():
    # one build, two routes, one seed: the product formula and the atom sum
    # of the materialized measure give the same pair law up to rounding, so
    # no draw crosses the rectangle differently.  The second input is the
    # criterion-07 model at k = 2..5, where rho and the closed shift moment
    # of the two routes agree to 1e-15 relative, and each agrees with a
    # float atom sum of the atoms to 1e-15
    seq = triangular_pow2(13)
    inputs = [(10, RECT, 17, [1, 3] + [seq.term(k) for k in (2, 4, 7, 12)]),
              (12, (F(-3, 5), F(9, 10), F(-7, 10), F(4, 5)), 11,
               [seq.term(k) for k in (2, 3, 4, 5)])]
    for stages, rect, seed, indices in inputs:
        fact = kahane_build(seq, harmonic, stages)
        measure = fact.materialize()
        routes = [GaussianRectangleModel(m, rect, seed=seed) for m in (fact, measure)]
        w = np.array([float(wt) for _, wt in measure.atoms])
        for n in indices:
            prod, atoms = (gauss_rectangle_overlap_mc(m, n, 20_000) for m in routes)
            assert (prod.p_in, prod.sym_diff) == (atoms.p_in, atoms.sym_diff), n
            for key in ("second_moment", "second_moment_closed", "shift_moment",
                        "shift_moment_closed"):
                assert getattr(prod, key) == pytest.approx(getattr(atoms, key),
                                                           abs=1e-12), (n, key)
            if stages == 12:
                rho = _rho(fact.fourier(n))
                assert rho == pytest.approx(_rho(fourier_direct(measure, n)), rel=1e-15)
                assert prod.shift_moment_closed == pytest.approx(
                    atoms.shift_moment_closed, rel=1e-15)
                lam = np.exp(2j * np.pi * np.array(
                    [float(residue(a, n)) for a, _ in measure.atoms]))
                assert rho == pytest.approx(complex(np.sum(w * lam)), abs=1e-15)
                assert prod.shift_moment_closed == pytest.approx(
                    float(np.sum(w * np.abs(lam - 1) ** 2)), abs=1e-15)
        assert prod.second_moment_closed == atoms.second_moment_closed == 1.0


def test_factorization_length_counts_materialized_atoms():
    # ratio 2 (pow2) is the tightest chain whose subset sums stay distinct
    for seq in (triangular_pow2(14), pow2_seq(14)):
        for N in range(1, 13):
            fact = kahane_build(seq, harmonic, N)
            assert len(fact) == len(fact.materialize()) == 2 ** N, (seq, N)
    # where sums collide the length is only an upper bound
    thirds = DiscreteMeasure([(F(j, 3), F(1, 3)) for j in range(3)])
    fact = ConvolutionFactorization([HALF, HALF, thirds])
    assert len(fact) == 12 and len(fact.materialize()) == 6


def _brute_force_overlap(model, n, samples, seed):
    """Reference sampler: one complex normal per atom, f = sum sqrt(w) g."""
    amp = np.sqrt([float(w) for _, w in model.measure.atoms])
    lam_n = np.exp(2j * np.pi * np.array(
        [float(a * n % 1) for a, _ in model.measure.atoms]))
    rng = np.random.default_rng(seed)
    shape = (samples, len(amp))
    g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)
    f, f_n = g @ amp, g @ (amp * lam_n)
    a, b, c, d = model.rectangle
    inside = (a < f.real) & (f.real < b) & (c < f.imag) & (f.imag < d)
    inside_n = (a < f_n.real) & (f_n.real < b) & (c < f_n.imag) & (f_n.imag < d)
    return {"p_in": inside.mean(), "sym_diff": (inside ^ inside_n).mean()}


def test_gauss_pair_sampler_matches_per_atom_reference():
    measure = DiscreteMeasure([(F(j, 11), F(j + 1, 36)) for j in range(8)])
    model = GaussianRectangleModel(measure, RECT, seed=3)
    samples = 40_000
    for n in (1, 2, 5):
        est = gauss_rectangle_overlap_mc(model, n, samples)
        ref = _brute_force_overlap(model, n, samples, seed=1000 + n)
        for key, p_ref in ref.items():
            p, se = getattr(est, key), getattr(est, f"{key}_se")
            se_ref = math.sqrt(p_ref * (1 - p_ref) / samples)
            assert abs(p - p_ref) <= 4 * math.hypot(se, se_ref), (n, key)
        assert est.sym_diff > 0.05
    # Re f and Im f are independent N(0, s/2) with s = 1
    sigma = math.sqrt(0.5)

    def phi(x):
        return 0.5 * (1 + math.erf(x / sigma / math.sqrt(2)))
    a, b, c, d = RECT
    p_closed = (phi(b) - phi(a)) * (phi(d) - phi(c))
    assert abs(est.p_in - p_closed) <= 4 * est.p_in_se


def test_gauss_second_moments_match_closed_form():
    model = small_model()
    est = gauss_rectangle_overlap_mc(model, 3, samples=100_000)
    assert abs(est.second_moment - est.second_moment_closed) <= 4 * est.second_moment_se
    assert abs(est.shift_moment - est.shift_moment_closed) <= 4 * est.shift_moment_se
    assert est.second_moment_closed == pytest.approx(1.0)


def test_gauss_rigid_powers_fit_cube_root_ceiling():
    model = small_model()
    seq = pow2_seq()
    for k in (3, 4, 5):
        est = gauss_rectangle_overlap_mc(model, seq.term(k), samples=50_000)
        ceiling = float(harmonic(k)) ** (1 / 3)       # C = 1 absorbs the lemma constant
        assert est.sym_diff <= ceiling + 3 * est.sym_diff_se
