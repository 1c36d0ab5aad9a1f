"""Block-echelon power orbits against the dense route they replaced.

``dilation/minimal`` and ``dilation_intertwiner`` read a record's power
orbit [E, W E, ..., W^N E] off its pivot blocks (see the ``dilation``
module docstring).  Here the pivot ranks are held equal to the dense
orbit ranks, and the block intertwiner's residuals to those of the least
squares route on the dense orbits, within 1e-13 (1 + scale) and with the
same verdict, on the demo fixtures, the test corpus and the levels
fixture.  Fault injections check that a rank-deficient pivot fails
``dilation/minimal`` with the dense rank in its note, and that a perturbed
copy block fails ``dilation_intertwined`` on either route.  Neither
``unitary`` nor ``matricial`` writes out or decomposes a matrix with a
side of the whole dilation space.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from covdilate.cli import run
from covdilate.dilation import (compose_unitary, explicit_matricial_unitary, orbit_rank,
                                schaffer_dilate, verify_isometric_dilation)
from covdilate.equivalence import DILATION_THRESHOLD, dilation_intertwiner
from covdilate.extension import _row_onto, coisometric_extend
from covdilate.numerics import DEFAULT_TOL, BlockOperator, spectral_norm, svd_rank
from covdilate.scenario import DEMO_NAMES, build_scenario, demo_fixture, load_scenario

import dense_oracle
from test_equivalence import finite_pair

AGREE = 1e-13
FIXTURE = Path(__file__).parent / "fixtures" / "tower-levels.json"


def _chains(corpus):
    """(name, chain, copies) over the demo fixtures and the test corpus."""
    for name in DEMO_NAMES:
        sc = build_scenario(demo_fixture(name))
        yield name, coisometric_extend(sc.pair, sc.levels, sc.strategy, sc.tol, sc.seed), \
            sc.copies
    for case in corpus:
        yield case.name, coisometric_extend(case.pair, case.levels, case.strategy), \
            case.copies


def _records(chain, copies):
    """Every kind of record the package builds on one chain."""
    return [schaffer_dilate(chain.pair, copies), compose_unitary(chain, copies),
            explicit_matricial_unitary(chain, copies)]


def _assert_agrees(block, dense, where):
    """Equal verdicts and residual names; residuals within AGREE (1 + scale),
    scale 1 for the scale-free residuals and the norm of E for fixes_source."""
    assert block.verdict == dense.verdict, where
    assert block.residuals.keys() == dense.residuals.keys(), where
    for name, value in block.residuals.items():
        assert abs(value - dense.residuals[name]) <= AGREE * 2.0, (where, name, value,
                                                                   dense.residuals[name])


def test_pivot_ranks_are_the_dense_orbit_ranks(corpus):
    kinds = set()
    for name, chain, copies in _chains(corpus):
        for rec in _records(chain, copies):
            assert rec.echelon is not None, (name, rec.kind)
            assert orbit_rank(rec) == dense_oracle.dense_orbit_rank(rec) == rec.total_dim, \
                (name, rec.kind)
            kinds.add(rec.kind)
    assert kinds == {"isometric", "unitary-composed", "unitary-explicit"}


def test_block_intertwiner_matches_the_least_squares_route(corpus):
    for name, chain, copies in _chains(corpus):
        composed = schaffer_dilate(chain.as_pair(), copies)
        explicit = explicit_matricial_unitary(chain, copies)
        for rec1, rec2 in ((composed, explicit), (explicit, composed)):
            block = dilation_intertwiner(rec1, rec2)
            assert isinstance(block.intertwiner, BlockOperator), name
            dense = dilation_intertwiner(dense_oracle.densified(rec1),
                                         dense_oracle.densified(rec2))
            assert isinstance(dense.intertwiner, np.ndarray), name
            _assert_agrees(block, dense, name)
            assert spectral_norm(block.intertwiner - dense.intertwiner) <= 1e-10, name


def test_levels_fixture_pivots_and_intertwiner_match_the_dense_route():
    sc = load_scenario(str(FIXTURE))
    chain = coisometric_extend(sc.pair, sc.levels, sc.strategy, sc.tol, sc.seed)
    composed = schaffer_dilate(chain.as_pair(), sc.copies, sc.tol)
    explicit = explicit_matricial_unitary(chain, sc.copies, sc.tol)
    for rec in (composed, explicit):
        assert rec.echelon is not None and orbit_rank(rec, sc.tol) == rec.total_dim
    # the explicit record's pivot is the defect row, in the chain's columns
    row = np.asarray(explicit.echelon.pivot)
    onto = next(c for c in explicit.report.clauses if c.name == "defect/row-onto")
    assert onto.note == f"rank {svd_rank(row, sc.tol)} of {row.shape[0]}"
    block = dilation_intertwiner(composed, explicit, sc.tol)
    # the least-squares route takes both dense orbits to full rank, or raises
    dense = dilation_intertwiner(dense_oracle.densified(composed),
                                 dense_oracle.densified(explicit), sc.tol)
    assert block.verdict == "equivalent"
    _assert_agrees(block, dense, "tower-levels")


def _replace_block(rec, key, block):
    w = rec.w
    return replace(rec, w=BlockOperator(w.rows, w.cols, {**w.blocks, key: block}))


def test_rank_deficient_pivot_fails_minimality_with_the_dense_rank():
    pair, _ = finite_pair(11)
    rec = schaffer_dilate(pair, 2)
    ((key, pivot),) = [(k, b) for k, b in rec.w.blocks.items() if k[0] == 1]
    deficient = pivot.copy()
    deficient[-1] = deficient[0]          # two equal rows: the pivot is not onto
    bad = _replace_block(rec, key, deficient)
    assert bad.echelon is not None
    assert not bad.echelon.spans(bad.echelon.pivot_svds())
    rank = dense_oracle.dense_orbit_rank(bad)
    assert rank < bad.total_dim
    minimal = next(c for c in verify_isometric_dilation(bad).clauses
                   if c.name == "dilation/minimal")
    assert not minimal.passed
    assert minimal.note == f"rank {rank} of {bad.total_dim}"


@pytest.mark.parametrize("route", ["least-squares", "pivot"])
def test_perturbed_copy_block_fails_dilation_intertwined(route):
    pair, strat = finite_pair(7)
    chain = coisometric_extend(pair, 2, strat)
    composed = schaffer_dilate(chain.as_pair(), 2)
    explicit = explicit_matricial_unitary(chain, 2)
    rng = np.random.default_rng(5)
    ech = explicit.echelon
    if route == "least-squares":
        # a block from the truncated last copy back to copy 1, where W stores
        # none: no longer Schaffer form, so u comes from least squares on
        # the dense orbits, which never apply W to the last copy
        key = (ech.parts[0][0], ech.parts[-1][0])
        block = np.zeros((explicit.w.rows[key[0]], explicit.w.cols[key[1]]), dtype=complex)
    else:
        # a block of the pivot, in the rows of copy 1: still Schaffer form,
        # so u comes from the pivots
        key = next(k for k in explicit.w.blocks if k[0] == ech.parts[0][0])
        block = explicit.w.blocks[key]
    bad = _replace_block(explicit, key, block + 1e-3 * rng.standard_normal(block.shape))
    assert (bad.echelon is None) == (route == "least-squares")
    cert = dilation_intertwiner(composed, bad)
    assert cert.verdict == "inconclusive"
    assert cert.residuals["dilation_intertwined"] > DILATION_THRESHOLD
    assert cert.intertwiner is None


def test_defect_row_pivots_certify_the_rank_or_defer():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    q = np.linalg.qr(z)[0]
    head = rng.standard_normal((2, 5)) + 0j
    assert _row_onto(head, [q], DEFAULT_TOL)
    assert _row_onto(None, [q, np.zeros((3, 0))], DEFAULT_TOL)
    # a repeated column: ||q* q - I|| >= 1, so the dense rank decides
    assert not _row_onto(head, [np.hstack([q[:, :3], q[:, :1]])], DEFAULT_TOL)
    # a head with a zero row is not onto
    assert not _row_onto(np.vstack([head, np.zeros((1, 5))]), [q], DEFAULT_TOL)


def test_unitary_and_matricial_form_no_total_side_matrix(monkeypatch):
    """Neither command writes a package record's operator out densely or
    decomposes a matrix with a side of the whole dilation space."""
    sc = build_scenario(demo_fixture("tower"))
    sides = []

    def logged(fn):
        def call(a, *args, **kwargs):
            sides.append(max(np.shape(a)[-2:]))
            return fn(a, *args, **kwargs)
        return call

    monkeypatch.setattr(BlockOperator, "dense", logged(BlockOperator.dense))
    for name in ("svd", "eigh", "eigvalsh", "pinv"):
        monkeypatch.setattr(np.linalg, name, logged(getattr(np.linalg, name)))
    for command in ("unitary", "matricial"):
        sides.clear()
        report = run(sc, command)
        total = sum(report["dimensions"]["blocks"].values())
        assert report["passed"] and sides, command
        assert max(sides) < total, (command, max(sides), total)
