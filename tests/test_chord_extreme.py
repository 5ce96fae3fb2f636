"""One exact residue selector: the CLI chord rows, the diagonal chain's
probe loop and the certificate files, each against a reference route
kept here."""

import json
from fractions import Fraction as F

import pytest

from recurlab import kinds, linsys
from recurlab.certificates import frac_str
from recurlab.circle import chord_extreme, perturb_divisibility, unimod_dist
from recurlab.cli import ExperimentConfig, run
from recurlab.linsys import build_diag_chain, build_j_function
from recurlab.precision import (Bound, bound_max, get_bits, residue,
                                working_bits)
from recurlab.seqcore import (gen_divisibility, gen_recursive_q, naturals,
                              triangular_pow2)


def config(kind: str, params: dict, **extra) -> dict:
    return {"schema": "recurlab/1", "kind": kind, "params": params, **extra}


def _reference_rows(theta, terms, with_residue):
    """Per-term ``unimod_dist`` at the current precision."""
    rows = []
    for k, n in enumerate(terms):
        b = unimod_dist(theta, n)
        res = (frac_str(residue(F(theta) % 1, n)),) if with_residue else ()
        rows.append((k, n, *res, b.dec(17), frac_str(b.lo), frac_str(b.hi)))
    return rows


@pytest.mark.parametrize("theta, terms", [
    (F(2, 7), naturals(30).prefix(30)),          # three distinct distances
    (F(-5, 13), triangular_pow2(12).prefix(12)),
    (F(4, 3), triangular_pow2(12).prefix(12)),
    (F(1, 6), [1, 2, 3, 6, 7]),                  # exact chords 1, sqrt 3, 2, 0
])
@pytest.mark.parametrize("with_residue", [False, True])
def test_chord_rows_match_per_term_reference(theta, terms, with_residue):
    for bits in (53, 96, 128):
        with working_bits(bits):
            assert (list(kinds._chord_rows(theta, terms, with_residue))
                    == [",".join(map(str, row)) + "\n"
                        for row in _reference_rows(theta, terms, with_residue)])


@pytest.mark.parametrize("theta", ["2/7", "-5/13", "4/3"])
def test_witness_rows_use_the_config_precision(tmp_path, theta):
    outer = get_bits()
    assert outer != 64
    seq = {"name": "naturals", "count": 20}
    run(ExperimentConfig.from_dict(config(
        "witness", {"seq": seq, "theta": theta, "horizon": 19}, bits=64)),
        out_dir=tmp_path)
    assert get_bits() == outer
    with working_bits(64):
        want = _reference_rows(F(theta), naturals(20).prefix(20), True)
    lines = (tmp_path / "residues.csv").read_text().splitlines()
    assert lines[0] == "k,n_k,residue,dist,dist_lo,dist_hi"
    assert lines[1:] == [",".join(str(c) for c in row) for row in want]


def test_jamison_rows_use_the_config_precision(tmp_path):
    assert get_bits() != 96
    tri = {"name": "triangular-pow2", "count": 13}
    report = run(ExperimentConfig.from_dict(config(
        "jamison", {"seq": tri, "epsilon": "1/4", "horizon": 12,
                    "expect": "witness"}, bits=96)), out_dir=tmp_path)
    theta = F(report["certificates"][0]["values"]["best_theta"])
    with working_bits(96):
        want = _reference_rows(theta, triangular_pow2(13).prefix(13), False)
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[1:] == [",".join(str(c) for c in row) for row in want]
    # an evaluation at the outer precision gives other enclosures
    assert want != _reference_rows(theta, triangular_pow2(13).prefix(13), False)


# --- the diagonal chain ----------------------------------------------------

def _reference_chain(seq, N, eps):
    """The chain with a full ``perturb_divisibility`` per (level, m) probe."""
    budgets = [F(e) for e in eps]
    cap = 4 * N + 48
    jm = build_j_function(N)
    angles, ms, tele, used = [F(0)], [None], [Bound.exact(0)], set()
    for n in range(2, N + 1):
        budget, pick = budgets[n - 2], None
        for m in range(1, cap + 1):
            if m in used:
                continue
            try:
                probe = perturb_divisibility(0, seq, m)
            except IndexError:
                break
            if probe.certificate.bound.certainly_lt(budget):
                pick = m
                break
        if pick is None:
            raise ValueError(f"edge budget {budget} infeasible at level {n} "
                             f"(searched m <= {cap}); the sequence grows too slowly")
        used.add(pick)
        step = perturb_divisibility(angles[jm[n] - 1], seq, pick)
        angles.append(step.theta.exact)
        ms.append(pick)
        tele.append(tele[jm[n] - 1] + step.certificate.bound)
    return angles, ms, tele


def _budgets(N, delta=F(1, 2)):
    return [delta * F(1, 2 ** (n + 1)) for n in range(2, N + 1)]


@pytest.mark.parametrize("N", range(2, 17))
def test_diag_chain_matches_reference_probe_loop(N):
    seq = triangular_pow2(40)
    chain = build_diag_chain(seq, N, _budgets(N))
    angles, ms, tele = _reference_chain(seq, N, _budgets(N))
    assert chain.angles == angles
    assert chain.m_indices == ms
    assert chain.tele_bounds == tele
    assert chain.horizon == max(ms[1:])
    for n in range(1, N + 1):
        ref = bound_max([unimod_dist(chain.angles[n - 1], t)
                         for t in seq.prefix(chain.horizon)])
        direct, _ = chord_extreme(chain.angles[n - 1],
                                  seq.prefix(chain.horizon))
        assert direct == ref


# ratios that are not powers of two, so d_m = 1/r_m, and budgets for which
# the picks run every branch: at 7/10, m = 1 (d = 1/3) fails 4 d < budget,
# m = 3 (d = 1/7) passes it but neither 2 pi d < budget nor its chord
# (0.868), and m = 5 (d = 1/11) is accepted on 2 pi d; at 22/25, m = 3 is
# accepted on its chord
_MIXED = gen_divisibility(1, [3, 5, 7, 2, 11, 13, 6, 17, 19, 9, 23, 29, 31,
                              10, 37, 41, 43, 47, 53, 59, 61, 67], 23)
_MIXED_EPS = [F(7, 10), F(22, 25), F(1, 2), F(3, 10), F(1, 4), F(1, 5),
              F(1, 8), F(1, 10)]


def test_diag_chain_picks_on_the_exact_distance(monkeypatch):
    chords = []
    evaluate = linsys.chord
    monkeypatch.setattr(linsys, "chord",
                        lambda d: chords.append(d) or evaluate(d))
    chain = build_diag_chain(_MIXED, 9, _MIXED_EPS)
    # the enclosures between the two tests alone; the edges make none yet
    assert chords.count(F(1, 7)) == 2
    assert F(1, 3) not in chords and F(1, 11) not in chords
    assert chain.m_indices[1:3] == [5, 3]
    assert chain.distances[1:3] == [F(1, 11), F(1, 7)]
    angles, ms, tele = _reference_chain(_MIXED, 9, _MIXED_EPS)
    assert (chain.angles, chain.m_indices, chain.tele_bounds) == (angles, ms, tele)
    for edge, m, d in zip(chain.edges[1:], ms[1:], chain.distances[1:]):
        assert edge.certificate.horizon == m - 1
        assert edge.certificate.bound == chord_extreme(
            F(1, _MIXED.term(m)), _MIXED.prefix(m))[0] == evaluate(d)


def test_diag_chain_edges_use_the_precision_of_the_build():
    with working_bits(256):
        chain = build_diag_chain(_MIXED, 9, _MIXED_EPS)
        angles, ms, tele = _reference_chain(_MIXED, 9, _MIXED_EPS)
    assert get_bits() < 256
    assert chain.tele_bounds == tele
    assert chain.tele_bounds[-1].width < F(1, 2 ** 240)


@pytest.mark.parametrize("seq, N", [
    (gen_divisibility(1, [3] * 40, 41), 4),      # the ratio-3 chain
    (gen_divisibility(2, [2, 2, 2], 4), 6),      # a short ratio list
    (gen_recursive_q(3, 10), 4),                 # not a divisibility chain
])
def test_diag_chain_errors_match_reference(seq, N):
    with pytest.raises(ValueError) as ref:
        _reference_chain(seq, N, _budgets(N))
    with pytest.raises(ValueError) as got:
        build_diag_chain(seq, N, _budgets(N))
    assert str(got.value) == str(ref.value)


def test_diag_chain_rejects_non_divisibility_before_probing(monkeypatch):
    monkeypatch.setattr(linsys, "distance_numerators", None)    # no probe may run
    with pytest.raises(ValueError, match="exact only for divisibility"):
        build_diag_chain(gen_recursive_q(3, 10), 3, _budgets(3))


# --- certificate files -----------------------------------------------------

@pytest.mark.parametrize("cfg", [
    config("bohr", {"r": 2, "n_max": 4, "eps": "1/16",
                    "probe": {"rotations": ["1/3"], "eps": "1/100"}}),
    config("linsys", {"seq": {"name": "triangular-pow2", "count": 14},
                      "dimension": 4, "horizon": 3, "delta": "1/2",
                      "witness_theta": "1/3", "mc": {"samples": 16}}),
    config("witness", {"seq": {"name": "naturals", "count": 9},
                       "theta": "2/7", "horizon": 8, "target": "1/2"}),
])
def test_certificate_files_equal_report_entries(tmp_path, cfg):
    report = run(ExperimentConfig.from_dict(cfg), out_dir=tmp_path)
    on_disk = json.loads((tmp_path / "report.json").read_text())
    names = sorted(p.name for p in tmp_path.glob("cert-*.json"))
    assert len(names) == len(report["certificates"]) > 0
    for i, name in enumerate(names):
        assert name.startswith(f"cert-{i:02d}-")
        cert = json.loads((tmp_path / name).read_text())
        assert cert == report["certificates"][i] == on_disk["certificates"][i]
