"""Block-echelon power orbits against the dense route they replaced.

``dilation/minimal`` and ``dilation_intertwiner`` read a record's power
orbit [E, W E, ..., W^N E] off its pivot blocks (see the ``dilation``
module docstring).  Here the pivot ranks are held equal to the dense
orbit ranks, and the block intertwiner's residuals to those of the least
squares route on the dense orbits, within 1e-13 (1 + scale) and with the
same verdict, on the demo fixtures, the test corpus and the levels
fixture.  Fault injections check that a rank-deficient pivot fails
``dilation/minimal`` with the dense rank in its note, and that a perturbed
copy block fails ``dilation_intertwined`` on either route.  The factors
(s_c, B_c) a ``schaffer_dilate`` record holds stand in for the pivot's SVD,
so that it and ``verify_isometric_dilation`` take no SVD past the one of
each defect group's columns that builds the record, only while they
certify the stored blocks: an edited pivot block, a copy basis off
orthonormal and a singular value within round-off of the cutoff each go
to the SVD and the dense rank.  The bounds an ``explicit_matricial_unitary``
record holds for its pivot, the defect row, decide as that row's SVD
does and bracket its singular values; an edited row block, a head near the
cutoff and an inflated X q_0 each go to the SVD and the dense rank.  An
intertwiner read off the pivots fixes the source exactly, with no norm
taken.  Neither ``unitary`` nor ``matricial`` writes out or decomposes a
matrix with a side of the whole dilation space.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import covdilate.dilation as dilation_mod
import covdilate.equivalence as equivalence_mod
import covdilate.numerics as numerics_mod
from covdilate.cli import run
from covdilate.dilation import (compose_unitary, explicit_matricial_unitary, orbit_rank,
                                schaffer_dilate, verify_isometric_dilation)
from covdilate.equivalence import DILATION_THRESHOLD, dilation_intertwiner
from covdilate.extension import _row_bounds, _row_onto, coisometric_extend
from covdilate.numerics import (DEFAULT_TOL, BlockOperator, _isometry_defect, rank_cutoff,
                                ranked_svds, spectral_norm, svd_rank)
from covdilate.scenario import DEMO_NAMES, build_scenario, demo_fixture, load_scenario

import dense_oracle
from test_equivalence import finite_pair
from test_intertwiner_bound import TOWER_WIDE

AGREE = 1e-13
FIXTURE = Path(__file__).parent / "fixtures" / "tower-levels.json"
# the tower-wide pair with its defect eigenvalue 1 - s^2 about 2e-11, below
# the root's clamp, so that X is round-off and the head alone sets the row's
# least singular value
NEAR_ISOMETRY = {**TOWER_WIDE, "pair": {**TOWER_WIDE["pair"], "scale": 1.0 - 1e-11}}
# slack of a bracket of singular values computed by the SVD
BRACKET = 1e-13


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
    assert rec.pivot_factors      # held, but no longer the stored block below
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


def _counting_svds(monkeypatch):
    """Count the calls of the SVD fallback of ``Echelon.pivot_svds``."""
    calls = []
    real = dilation_mod.ranked_svds

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dilation_mod, "ranked_svds", counting)
    return calls


def _refactored(rec, s, b):
    """The record with its one pivot block and its held factors replaced by
    diag(s) b* and (s, b), so that the block matches the factors bit for bit."""
    (key,) = [k for k in rec.w.blocks if k[0] == 1]
    return replace(_replace_block(rec, key, s[:, None] * b.conj().T), pivot_factors=((s, b),))


def _minimal(rec):
    return next(c for c in verify_isometric_dilation(rec).clauses if c.name == "dilation/minimal")


def test_held_factors_certify_the_pivot_with_no_svd(monkeypatch):
    pair, _ = finite_pair(11)
    rec = schaffer_dilate(pair, 2)
    calls = _counting_svds(monkeypatch)
    ((s, b),) = rec.pivot_factors
    ((u, s_held, vh),) = rec.echelon.pivot_svds(compute_uv=True)
    assert u is None and s_held is s and np.array_equal(vh, b.conj().T)
    assert orbit_rank(rec) == rec.total_dim and not calls
    (pivot,) = rec.echelon.pivot.component_blocks()
    pinv = np.linalg.pinv(pivot, rcond=DEFAULT_TOL.rank_eps)
    assert spectral_norm(b / s - pinv) <= 1e-12


def test_pivot_off_orthonormal_copy_basis_falls_back_to_the_dense_rank(monkeypatch):
    pair, _ = finite_pair(11)
    rec = schaffer_dilate(pair, 2)
    ((s, b),) = rec.pivot_factors
    same, skew = s.copy(), b.copy()
    same[1], skew[:, 1] = s[0], b[:, 0]   # ||B* B - I||_F >= 1, two equal pivot rows
    bad = _refactored(rec, same, skew)
    calls = _counting_svds(monkeypatch)
    assert not bad.echelon.spans(bad.echelon.pivot_svds()) and calls
    rank = dense_oracle.dense_orbit_rank(bad)
    assert rank < bad.total_dim
    assert orbit_rank(bad) == rank
    minimal = _minimal(bad)
    assert not minimal.passed and minimal.note == f"rank {rank} of {bad.total_dim}"


def test_pivot_singular_value_within_round_off_of_the_cutoff_falls_back(monkeypatch):
    """A kept s_c above the cutoff by less than the widening by B_c's
    isometry defect e is not certified: the pivot's SVD decides, and the
    rank is the dense route's.  One column of B_c is scaled by 1 + 1e-12, so
    that e is far above the last bits that sqrt(1 - e) resolves."""
    pair, _ = finite_pair(11)
    rec = schaffer_dilate(pair, 2)
    ((s, b),) = rec.pivot_factors
    b = b.copy()
    b[:, -1] *= 1.0 + 1e-12
    e = _isometry_defect(b)
    assert 1e-12 < e < 1e-11
    cut = rank_cutoff([], DEFAULT_TOL, max(1.0, s[0] * math.sqrt(1.0 + e)))
    near = s.copy()
    near[-1] = cut * (1.0 + e / 4.0)    # kept, but not after the widening
    assert near[-1] > cut and near[-1] * math.sqrt(1.0 - e) < cut
    bad = _refactored(rec, near, b)
    calls = _counting_svds(monkeypatch)
    svds = bad.echelon.pivot_svds()
    assert calls
    dense = ranked_svds(bad.echelon.pivot.component_blocks(), compute_uv=False, top=1.0)
    assert [len(x) for _, x, _ in svds] == [len(x) for _, x, _ in dense]
    rank = bad.total_dim if bad.echelon.spans(dense) else dense_oracle.dense_orbit_rank(bad)
    assert orbit_rank(bad) == rank
    assert _minimal(bad).note == f"rank {rank} of {bad.total_dim}"


@pytest.mark.parametrize("backend", ["finite", "tower", "tower-chain"])
def test_isometric_dilation_takes_one_svd_per_defect_group_and_no_eigh(monkeypatch, backend):
    """The record and its clauses take exactly one SVD, of T_g, per defect
    group (T_g: the group's columns of T on the row blocks they reach), and
    the record takes no eigendecomposition."""
    if backend == "finite":
        pair, copies = finite_pair(7)[0], 2
    else:
        sc = build_scenario(TOWER_WIDE)
        pair, copies = sc.pair, sc.copies
        if backend == "tower-chain":
            pair = coisometric_extend(sc.pair, sc.levels, sc.strategy, sc.tol,
                                      sc.seed).as_pair()
    t = BlockOperator((pair.space_dim,), (pair.space_dim,), {(0, 0): pair.contraction}) \
        if isinstance(pair.contraction, np.ndarray) else pair.contraction
    reached = {j for _, cols in t.components() for j in cols}
    groups = [(sum(t.rows[i] for i in rows), sum(t.cols[j] for j in cols))
              for rows, cols in t.components()] \
        + [(0, d) for j, d in enumerate(t.cols) if j not in reached]
    shapes, eighs = [], []

    def counting(calls, real):
        def call(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real(a, *args, **kwargs)
        return call

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", counting(shapes, np.linalg.svd))
        for name in ("eigh", "eigvalsh"):
            m.setattr(np.linalg, name, counting(eighs, getattr(np.linalg, name)))
        rec = schaffer_dilate(pair, copies)
        assert eighs == []
        report = verify_isometric_dilation(rec)
    assert report.passed and sorted(shapes) == sorted(groups)
    # the chain's group {H, defect-0} is [T, D_0*], wide
    assert backend != "tower-chain" or all(m < n for m, n in groups)


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


def _explicit_records(corpus):
    """(name, explicit record, tol) over the test corpus, unseeded and seeded,
    the tower-wide shape, the near-isometry pair and the levels fixture."""
    for seed in (None, 17):
        for case in corpus:
            chain = coisometric_extend(case.pair, case.levels, case.strategy, DEFAULT_TOL, seed)
            yield f"{case.name}/{seed}", explicit_matricial_unitary(chain, case.copies), \
                DEFAULT_TOL
    for name, sc in (("tower-wide", build_scenario(TOWER_WIDE)),
                     ("near-isometry", build_scenario(NEAR_ISOMETRY)),
                     ("tower-levels", load_scenario(str(FIXTURE)))):
        chain = coisometric_extend(sc.pair, sc.levels, sc.strategy, sc.tol, sc.seed)
        yield name, explicit_matricial_unitary(chain, sc.copies, sc.tol), sc.tol


def _svd_onto(ech, tol):
    return ech.spans(ranked_svds(ech.pivot.component_blocks(), tol, compute_uv=False,
                                 top=1.0), tol)


def _assert_brackets(rec, where):
    """The held (low, top) bracket the singular values of the pivot's
    components."""
    _, low, top = rec.pivot_row
    svals = [np.linalg.svd(b, compute_uv=False) for b in rec.echelon.pivot.component_blocks()]
    assert low <= min([s[-1] for s in svals], default=1.0) + BRACKET, where
    assert max([s[0] for s in svals], default=0.0) <= top + BRACKET, where


def test_defect_row_bounds_decide_as_the_pivot_svds(corpus):
    kinds = set()
    for name, rec, tol in _explicit_records(corpus):
        ech = rec.echelon
        assert rec.pivot_row and ech._row_certified(tol), name
        assert ech.onto(tol) == _svd_onto(ech, tol), name
        assert orbit_rank(rec, tol) == dense_oracle.dense_orbit_rank(rec, tol), name
        _assert_brackets(rec, name)
        row = rec.pivot_row[0]
        kinds.add(((0, 0) in row.blocks, (1, 1) in row.blocks))
    # heads with and without a q_0 below them, and the empty row of a unitary T
    assert {(True, True), (True, False), (False, False)} <= kinds


def _replace_row_blocks(rec, blocks):
    """The record with the defect-row blocks ``blocks`` ((summand, chain
    block) -> block) put in W, in the copy-1 part of the summand and the
    fine block of the chain block."""
    row, w = rec.pivot_row[0], rec.w
    parts = dict(zip([i for i, d in enumerate(row.rows) if d], rec.echelon.parts[0]))
    at = {k: i for (i, k) in rec.source_embed.blocks}
    return replace(rec, w=BlockOperator(w.rows, w.cols, {
        **w.blocks, **{(parts[i], at[j]): b for (i, j), b in blocks.items()}}))


def _rerowed(rec, blocks, s):
    """The record with the row blocks ``blocks`` put in both W and the held
    row, and the bounds held for the new row from the head's singular
    values ``s``."""
    row = rec.pivot_row[0]
    new = BlockOperator(row.rows, row.cols, {**row.blocks, **blocks})
    resid = [_isometry_defect(b.conj().T) for (i, j), b in sorted(new.blocks.items())
             if i == j > 0]
    return replace(_replace_row_blocks(rec, blocks),
                   pivot_row=(new, *_row_bounds(new, s, resid)))


def _assert_falls_back(rec, tol, monkeypatch, where):
    """The held bounds are refused, the SVD of the pivot decides, and the
    orbit rank is the dense one when the pivot falls short."""
    calls = _counting_svds(monkeypatch)
    assert not rec.echelon._row_certified(tol), where
    onto = rec.echelon.onto(tol)
    assert calls and onto == _svd_onto(rec.echelon, tol), where
    rank = rec.total_dim if onto else dense_oracle.dense_orbit_rank(rec, tol)
    assert orbit_rank(rec, tol) == rank == dense_oracle.dense_orbit_rank(rec, tol), where


def test_edited_defect_row_block_falls_back_to_the_dense_rank(monkeypatch):
    pair, strat = finite_pair(7)
    rec = explicit_matricial_unitary(coisometric_extend(pair, 2, strat), 2)
    row = rec.pivot_row[0]
    with pytest.raises(ValueError):          # the held row is read-only
        row.blocks[0, 0][0, 0] = 0.0
    # the last row of the head and of X made the first: the pivot is not onto
    bad = {}
    for j in (0, 1):
        bad[0, j] = row.blocks[0, j].copy()
        bad[0, j][-1] = bad[0, j][0]
    bad = _replace_row_blocks(rec, bad)
    _assert_falls_back(bad, DEFAULT_TOL, monkeypatch, "edited")
    assert orbit_rank(bad) < bad.total_dim


@pytest.mark.parametrize("spec, factor", [(NEAR_ISOMETRY, 0.5), (TOWER_WIDE, 1.3)])
def test_defect_row_head_near_the_cutoff_falls_back_to_the_dense_rank(monkeypatch, spec,
                                                                      factor):
    """A head whose least singular value is ``factor`` times the cutoff: on
    the near-isometry pair X is round-off, so the row falls short as the
    head does; on the tower-wide pair X fills the head's rows to a
    coisometry, so the row is onto although the head is within the bounds'
    widening of the cutoff."""
    sc = build_scenario(spec)
    chain = coisometric_extend(sc.pair, sc.levels, sc.strategy, sc.tol, sc.seed)
    rec = explicit_matricial_unitary(chain, sc.copies, sc.tol)
    u, s, vh = np.linalg.svd(rec.pivot_row[0].blocks[0, 0], full_matrices=False)
    s[-1] = factor * rank_cutoff([], sc.tol, 1.0)
    bad = _rerowed(rec, {(0, 0): (u * s) @ vh}, s)
    _assert_falls_back(bad, sc.tol, monkeypatch, spec["pair"]["scale"])
    assert (orbit_rank(bad, sc.tol) == bad.total_dim) == (factor > 1.0)
    _assert_brackets(bad, factor)


def test_inflated_corner_against_q0_falls_back_to_the_dense_rank(monkeypatch):
    """X + y q_0* moves X q_0 by y (q_0* q_0), about y, past the head's least
    squared singular value: the bounds no longer certify the row, which the
    triangular form still keeps onto."""
    sc = build_scenario(TOWER_WIDE)
    chain = coisometric_extend(sc.pair, sc.levels, sc.strategy, sc.tol, sc.seed)
    rec = explicit_matricial_unitary(chain, sc.copies, sc.tol)
    row = rec.pivot_row[0]
    head, x, q_star = row.blocks[0, 0], row.blocks[0, 1], row.blocks[1, 1]
    y = np.zeros((x.shape[0], q_star.shape[0]), dtype=complex)
    y[0, 0] = 1.0
    s = np.linalg.svd(head, compute_uv=False)
    bad = _rerowed(rec, {(0, 1): x + y @ q_star}, s)
    assert bad.pivot_row[1] == 0.0
    _assert_falls_back(bad, sc.tol, monkeypatch, "inflated")
    assert orbit_rank(bad, sc.tol) == bad.total_dim
    _assert_brackets(bad, "inflated")


def _dilation_chains():
    pair, strat = finite_pair(7)
    sc = build_scenario(TOWER_WIDE)
    yield "finite", coisometric_extend(pair, 2, strat), 2
    yield "tower-wide", coisometric_extend(sc.pair, sc.levels, sc.strategy, sc.tol,
                                           sc.seed), sc.copies


def test_pivot_built_intertwiner_fixes_the_source_with_no_norm(monkeypatch):
    """u E1 - E2 is exactly zero for the u read off the pivots, so
    ``fixes_source`` is 0.0 with no spectral_norm and no clause kernel run
    on an operator of the source's columns."""
    norms, layouts = [], []
    real_clause_max = numerics_mod._clause_max

    def clause_max(term, *args, **kwargs):
        op = term[0] if isinstance(term, tuple) else term
        layouts.append((getattr(op, "rows", None), getattr(op, "cols", None)))
        return real_clause_max(term, *args, **kwargs)

    monkeypatch.setattr(numerics_mod, "_clause_max", clause_max)
    monkeypatch.setattr(equivalence_mod, "spectral_norm",
                        lambda *args, **kwargs: norms.append(args))
    for name, chain, copies in _dilation_chains():
        composed = schaffer_dilate(chain.as_pair(), copies)
        explicit = explicit_matricial_unitary(chain, copies)
        for rec1, rec2 in ((composed, explicit), (explicit, composed)):
            layouts.clear()
            cert = dilation_intertwiner(rec1, rec2)
            assert cert.verdict == "equivalent" and isinstance(cert.intertwiner, BlockOperator)
            assert cert.residuals["fixes_source"] == 0.0, name
            assert layouts and (rec2.w.rows, rec1.source_embed.cols) not in layouts, name
            u = cert.intertwiner
            assert not np.asarray(u @ rec1.source_embed - rec2.source_embed).any(), name
    assert not norms


def test_least_squares_intertwiner_computes_fixes_source(monkeypatch):
    """Records not in Schaffer form keep the computed value, which agrees
    with the pivot-built certificate."""
    norms = []
    real_norm = equivalence_mod.spectral_norm

    def spectral(*args, **kwargs):
        norms.append(args)
        return real_norm(*args, **kwargs)

    monkeypatch.setattr(equivalence_mod, "spectral_norm", spectral)
    for name, chain, copies in _dilation_chains():
        composed = schaffer_dilate(chain.as_pair(), copies)
        explicit = explicit_matricial_unitary(chain, copies)
        rec1, rec2 = dense_oracle.densified(composed), dense_oracle.densified(explicit)
        assert rec1.echelon is None and rec2.echelon is None
        norms.clear()
        dense = dilation_intertwiner(rec1, rec2)
        assert len(norms) == 1, name
        u = dense.intertwiner
        assert dense.residuals["fixes_source"] == real_norm(
            u @ rec1.source_embed - rec2.source_embed), name
        _assert_agrees(dilation_intertwiner(composed, explicit), dense, name)
