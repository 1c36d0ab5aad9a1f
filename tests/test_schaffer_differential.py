"""The isometric dilation from one eigendecomposition per defect group,
against the dense-root route it replaced.

``schaffer_dilate`` takes each group's copy basis B_c, its copy-1 head
diag(s_c) B_c* and the pivot's SVD from the eigendecomposition behind the
defect root (see the ``dilation`` module docstring).
``dense_oracle.oracle_schaffer_dilate`` builds the same record the old way:
the dense root Delta_c, its range from an SVD and the head B_c* Delta_c.
On the corpus (seeded and not), the tower-wide shape and the levels
fixture, for the source pair and for the chain pair, ``dilation_intertwiner``
certifies the two records equivalent, and their clause reports agree in
dimensions, clause names, pass flags and notes.
"""

from pathlib import Path

import numpy as np

from covdilate.dilation import schaffer_dilate, verify_isometric_dilation
from covdilate.equivalence import dilation_intertwiner
from covdilate.extension import coisometric_extend
from covdilate.numerics import DEFAULT_TOL
from covdilate.scenario import build_scenario, load_scenario

import dense_oracle
from test_intertwiner_bound import TOWER_WIDE

FIXTURE = Path(__file__).parent / "fixtures" / "tower-levels.json"


def _pairs(corpus):
    """(name, pair, copies, tol): every case's pair and its chain pair, the
    chains unseeded and seeded, then the tower-wide shape and the levels
    fixture."""
    for case in corpus:
        yield case.name, case.pair, case.copies, DEFAULT_TOL
        for seed in (None, 17):
            chain = coisometric_extend(case.pair, case.levels, case.strategy, DEFAULT_TOL, seed)
            yield f"{case.name}-chain-seed{seed}", chain.as_pair(), case.copies, DEFAULT_TOL
    for name, sc in (("tower-wide", build_scenario(TOWER_WIDE)),
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
