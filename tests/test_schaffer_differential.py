"""The isometric dilation from one SVD per defect group, against the
dense-root route it replaced.

``schaffer_dilate`` takes each group's copy basis B_c, its copy-1 head
diag(s_c) B_c* and the pivot's SVD from the SVD of the group's columns T_g
(see the ``dilation`` module docstring).
``dense_oracle.oracle_schaffer_dilate`` builds the same record the old way:
the dense root Delta_c, its range from an SVD and the head B_c* Delta_c.
On the corpus (seeded and not), the tower-wide shape, the near-isometry
pair, whose defect sits at the root's clamp, and the levels fixture, for
the source pair and for the chain pair, ``dilation_intertwiner`` certifies
the two records equivalent, and their clause reports agree in dimensions,
clause names, pass flags and notes.  ``defect_roots`` takes both roots from
one SVD of T too: they agree with ``psd_sqrt`` of the two defects, and
both routes read ||T|| off the SVD for their contraction gate.
"""

from pathlib import Path

import numpy as np
import pytest

from covdilate.covariant import CovariantPair, DirectSumRep, defect_floor, defect_roots
from covdilate.dilation import schaffer_dilate, verify_isometric_dilation
from covdilate.equivalence import dilation_intertwiner
from covdilate.errors import NotContraction
from covdilate.extension import coisometric_extend
from covdilate.numerics import DEFAULT_TOL, BlockOperator, psd_sqrt, spectral_norm
from covdilate.scenario import build_scenario, load_scenario

import dense_oracle
from test_echelon import NEAR_ISOMETRY
from test_intertwiner_bound import TOWER_WIDE

FIXTURE = Path(__file__).parent / "fixtures" / "tower-levels.json"


def _pairs(corpus):
    """(name, pair, copies, tol): every case's pair and its chain pair, the
    chains unseeded and seeded, then the tower-wide shape, the near-isometry
    pair and the levels fixture."""
    for case in corpus:
        yield case.name, case.pair, case.copies, DEFAULT_TOL
        for seed in (None, 17):
            chain = coisometric_extend(case.pair, case.levels, case.strategy, DEFAULT_TOL, seed)
            yield f"{case.name}-chain-seed{seed}", chain.as_pair(), case.copies, DEFAULT_TOL
    for name, sc in (("tower-wide", build_scenario(TOWER_WIDE)),
                     ("near-isometry", build_scenario(NEAR_ISOMETRY)),
                     ("levels", load_scenario(str(FIXTURE)))):
        chain = coisometric_extend(sc.pair, sc.levels, sc.strategy, sc.tol, sc.seed)
        yield name, sc.pair, sc.copies, sc.tol
        yield f"{name}-chain", chain.as_pair(), sc.copies, sc.tol


def _structure(report):
    return ([(c.name, c.passed, c.note) for c in report.clauses], report.notes)


def test_eigh_records_are_equivalent_to_the_dense_root_records(corpus):
    held = 0
    for name, pair, copies, tol in _pairs(corpus):
        rec = schaffer_dilate(pair, copies, tol)
        oracle = dense_oracle.oracle_schaffer_dilate(pair, copies, tol)
        assert not oracle.pivot_factors, name
        assert rec.block_dims == oracle.block_dims, name
        assert [p.dim for p in rec.eta.parts] == [p.dim for p in oracle.eta.parts], name
        assert _structure(verify_isometric_dilation(rec, tol)) \
            == _structure(verify_isometric_dilation(oracle, tol)), name
        if rec.total_dim > pair.space_dim:
            cert = dilation_intertwiner(rec, oracle, tol)
            assert cert.verdict == "equivalent", (name, cert.residuals)
            # the held s_c are the singular values of the dense route's pivots
            dense = oracle.echelon.pivot_svds(tol)
            assert len(dense) == len(rec.pivot_factors), name
            for (_, s, _), (s_c, _) in zip(dense, rec.pivot_factors):
                assert s.shape == s_c.shape and np.abs(s - s_c).max() <= 1e-12, name
            held += 1
    assert held > len(corpus)


def _source_pairs(corpus):
    """(name, pair, tol) of every plain-matrix pair: the corpus, the
    tower-wide shape and the near-isometry pair."""
    for case in corpus:
        yield case.name, case.pair, DEFAULT_TOL
    for name, spec in (("tower-wide", TOWER_WIDE), ("near-isometry", NEAR_ISOMETRY)):
        sc = build_scenario(spec)
        yield name, sc.pair, sc.tol


def test_defect_roots_agree_with_the_square_roots_of_the_defects(corpus):
    """Both roots from one SVD of T against psd_sqrt of I - T*T and I - TT*
    at the widened floor, within 1e-12."""
    compared = 0
    for name, pair, tol in _source_pairs(corpus):
        t = pair.contraction
        eye = np.eye(pair.space_dim, dtype=complex)
        floor = defect_floor(tol)
        delta, delta_star = defect_roots(pair, tol)
        for got, want in ((delta, psd_sqrt(eye - t.conj().T @ t, floor)),
                          (delta_star, psd_sqrt(eye - t @ t.conj().T, floor))):
            assert np.abs(got - want).max() <= 1e-12, name
            assert np.array_equal(got, got.conj().T), name
        compared += bool(t.any())
    assert compared > len(corpus) // 2


def _scaled(pair, norm):
    """The pair with T rescaled to the given norm (not covariance-checked:
    the gates come first)."""
    t = pair.contraction
    return CovariantPair(pair.system, pair.rep, t * (norm / spectral_norm(t)), pair.depth)


def _gate_norm(fn):
    with pytest.raises(NotContraction) as err:
        fn()
    return float(str(err.value).split("= ")[1].split()[0])


@pytest.mark.parametrize("name", ["finite", "tower-wide"])
def test_the_contraction_gate_reads_the_norm_off_the_svd(corpus, name):
    """Just above 1 + rank_eps both routes raise NotContraction with
    ||T|| = spectral_norm(T) up to round-off; just below it neither does.
    On a block T of two defect groups the gate takes the largest sigma over
    the groups, so the group past 1 raises NotContraction, not NotPositive."""
    tol = DEFAULT_TOL
    if name == "finite":
        pair, copies = next(c.pair for c in corpus if c.pair.contraction.any()), 2
    else:
        sc = build_scenario(TOWER_WIDE)
        pair, copies = sc.pair, sc.copies
    above = _scaled(pair, 1.0 + 2.0 * tol.rank_eps)
    norm = spectral_norm(above.contraction)
    assert norm > 1.0 + tol.rank_eps
    for fn in (lambda: schaffer_dilate(above, copies, tol), lambda: defect_roots(above, tol)):
        assert abs(_gate_norm(fn) - norm) <= 1e-12
    below = _scaled(pair, 1.0 + 0.5 * tol.rank_eps)
    schaffer_dilate(below, copies, tol)
    defect_roots(below, tol)

    t, h = above.contraction, pair.space_dim
    two = CovariantPair(pair.system, DirectSumRep((pair.rep, pair.rep)),
                        BlockOperator((h, h), (h, h), {(0, 0): 0.5 * t / norm, (1, 1): t}),
                        pair.depth)
    assert abs(_gate_norm(lambda: schaffer_dilate(two, copies, tol)) - norm) <= 1e-12
