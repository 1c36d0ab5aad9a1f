from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import covdilate.dilation as dilation_mod
from covdilate.algebra import FiniteDimCStarAlgebra, Representation, StarHom
from covdilate.cli import run
from covdilate.covariant import (AdaptedStrategy, CovariantPair, FiniteDimSystem,
                                 haar_unitary)
from covdilate.cpmaps import CPMap
from covdilate.dilation import (_compression, compose_unitary, explicit_matricial_unitary,
                                power_orbit, schaffer_dilate, unitary_dilate,
                                verify_isometric_dilation)
from covdilate.errors import DepthExceeded, NotContraction
from covdilate.extension import coisometric_extend
from covdilate.numerics import (DEFAULT_TOL, BlockOperator, block_diag, orthonormal_span,
                                residual, spectral_norm)
from covdilate.scenario import DEMO_NAMES, build_scenario, demo_fixture, load_scenario
from covdilate.tower import ShiftTower, TowerTransfer, shift_down_pair, state_density

from test_commutant_bound import TOWER_DEEP
from test_equivalence import finite_pair
from test_intertwiner_bound import TOWER_WIDE

FIXTURE = Path(__file__).parent / "fixtures" / "tower-levels.json"


SCALARS = FiniteDimCStarAlgebra((1,))


def scalar_pair(t=0.6):
    pi = Representation.from_multiplicities(SCALARS, [1])
    system = FiniteDimSystem(SCALARS, StarHom.identity(SCALARS))
    return CovariantPair(system, pi, np.array([[t]], dtype=complex))


def matrix_pair(dim, seed, norm=0.85):
    # A = C acting by scalars: every contraction is covariant
    rng = np.random.default_rng(seed)
    pi = Representation.from_multiplicities(SCALARS, [dim])
    system = FiniteDimSystem(SCALARS, StarHom.identity(SCALARS))
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    t = norm * z / spectral_norm(z)
    return CovariantPair(system, pi, t)


def classical_schaffer_full(t: np.ndarray, copies: int) -> np.ndarray:
    """Independent classical construction on full (uncompressed) defect copies."""
    h = t.shape[0]
    vals, vecs = np.linalg.eigh(np.eye(h) - t.conj().T @ t)
    vals = np.where(np.abs(vals) <= 1e-10, 0.0, np.clip(vals, 0.0, None))
    delta = (vecs * np.sqrt(vals)) @ vecs.conj().T
    total = (copies + 1) * h
    w = np.zeros((total, total), dtype=complex)
    w[:h, :h] = t
    w[h:2 * h, :h] = delta
    for j in range(1, copies):
        w[(j + 1) * h:(j + 2) * h, j * h:(j + 1) * h] = np.eye(h)
    return w


def test_scalar_schaffer_matrix_is_classical():
    rec = schaffer_dilate(scalar_pair(0.6), 2)
    expected = np.array([[0.6, 0, 0], [0.8, 0, 0], [0, 1.0, 0]])
    assert np.allclose(rec.w, expected, atol=1e-12)
    rep = verify_isometric_dilation(rec)
    assert rep.passed


def test_schaffer_matches_classical_construction_entrywise():
    # the compressed defect embeds into the full classical form; through that
    # embedding the two dilations agree entrywise
    for dim, seed in [(1, 0), (2, 1), (3, 2), (4, 3)]:
        pair = matrix_pair(dim, seed)
        copies = 3
        rec = schaffer_dilate(pair, copies)
        w_cl = classical_schaffer_full(pair.contraction, copies)
        basis = rec.eta.parts[1].basis if rec.block_dims[1] else \
            np.zeros((dim, 0), dtype=complex)
        embed = block_diag([np.eye(dim)] + [basis] * copies)
        assert spectral_norm(w_cl @ embed - embed @ rec.w) <= 1e-10
        # compressions agree for every power
        for n in range(copies + 1):
            lhs = np.linalg.matrix_power(w_cl, n)[:dim, :dim]
            rhs = np.linalg.matrix_power(rec.w, n)[:dim, :dim]
            assert spectral_norm(lhs - rhs) <= 1e-10


def test_isometry_input_degenerates():
    rng = np.random.default_rng(4)
    algebra = FiniteDimCStarAlgebra((2,))
    u = algebra.element([haar_unitary(2, rng)])
    alpha = StarHom.inner_automorphism(u)
    pi = Representation.from_multiplicities(algebra, [1])
    system = FiniteDimSystem(algebra, alpha)
    pair = CovariantPair(system, pi, pi(u).conj().T)
    rec = schaffer_dilate(pair, 3)
    assert rec.total_dim == 2
    assert spectral_norm(rec.w - pair.contraction) <= 1e-12
    rep = verify_isometric_dilation(rec)
    assert rep.passed
    # the coisometry-inheritance clause fires for a unitary source
    assert any(c.name == "dilation/coisometry-inherited" for c in rep.clauses)


def test_schaffer_rejects_expansion():
    pi = Representation.from_multiplicities(SCALARS, [1])
    system = FiniteDimSystem(SCALARS, StarHom.identity(SCALARS))
    pair = CovariantPair(system, pi, np.array([[1.2]]))
    with pytest.raises(NotContraction):
        schaffer_dilate(pair, 1)


def test_scalar_dilation_powers():
    rec = schaffer_dilate(scalar_pair(0.6), 2)
    w2 = np.linalg.matrix_power(rec.w, 2)
    assert abs(w2[0, 0] - 0.36) < 1e-12


def test_minimality_scalar_fills_every_slot():
    rec = schaffer_dilate(scalar_pair(0.6), 3)
    cols = []
    power = np.eye(rec.total_dim)
    for _ in range(4):
        cols.append(power @ rec.source_embed)
        power = rec.w @ power
    _, rank = orthonormal_span(np.hstack(cols))
    assert rank == rec.total_dim == 4


def test_random_pair_verifies(corpus):
    for case in corpus[:6]:
        rec = schaffer_dilate(case.pair, case.copies)
        rep = verify_isometric_dilation(rec)
        assert rep.passed, case.name


def test_minimality_at_truncation_four(corpus):
    for case in corpus[:4]:
        rec = schaffer_dilate(case.pair, 4)
        rep = verify_isometric_dilation(rec)
        minimal = next(c for c in rep.clauses if c.name == "dilation/minimal")
        assert minimal.passed


def test_coisometry_inheritance_from_extension_output():
    # a strictly coisometric extension output (unitary contraction case) feeds
    # the dilation and the inheritance clause fires and passes
    rng = np.random.default_rng(21)
    algebra = FiniteDimCStarAlgebra((2,))
    u = algebra.element([haar_unitary(2, rng)])
    alpha = StarHom.inner_automorphism(u)
    pi = Representation.from_multiplicities(algebra, [2], haar_unitary(4, rng))
    system = FiniteDimSystem(algebra, alpha)
    pair = CovariantPair(system, pi, pi(u).conj().T)
    chain = coisometric_extend(pair, 2, AdaptedStrategy(CPMap.from_hom(alpha.inverse())))
    cpair = chain.as_pair()
    assert spectral_norm(np.eye(cpair.space_dim)
                         - cpair.contraction @ cpair.contraction.dense().conj().T) <= 1e-10
    rec = schaffer_dilate(cpair, 2)
    rep = verify_isometric_dilation(rec)
    inherited = next(c for c in rep.clauses
                     if c.name == "dilation/coisometry-inherited")
    assert inherited.passed


def test_unitary_dilate_scalar_powers():
    pair = scalar_pair(0.6)
    rec = unitary_dilate(pair, 3, 3, AdaptedStrategy(CPMap.identity(SCALARS)))
    assert rec.report.passed
    u = rec.w.dense()
    for n in range(4):
        comp = np.linalg.matrix_power(u, n)[0, 0]
        assert abs(comp - 0.6 ** n) < 1e-12


def test_unitary_dilate_unitary_contraction():
    rng = np.random.default_rng(11)
    algebra = FiniteDimCStarAlgebra((2,))
    u = algebra.element([haar_unitary(2, rng)])
    alpha = StarHom.inner_automorphism(u)
    pi = Representation.from_multiplicities(algebra, [1])
    system = FiniteDimSystem(algebra, alpha)
    pair = CovariantPair(system, pi, pi(u).conj().T)
    rec = unitary_dilate(pair, 2, 2, AdaptedStrategy(CPMap.from_hom(alpha.inverse())))
    assert rec.total_dim == 2
    assert spectral_norm(rec.w - pair.contraction) <= 1e-12
    assert rec.report.passed


def test_unitary_dilate_tower():
    tower = ShiftTower(2, 5)
    pair = shift_down_pair(tower, 3, 1, 0.9, [1, 0], [1, 0])
    strat = AdaptedStrategy(TowerTransfer(tower, state_density(tower, "trace")))
    rec = unitary_dilate(pair, 1, 1, strat)
    assert rec.report.passed
    assert rec.report.max_residual() <= 1e-7


def test_unitary_dilate_tower_depth_gate():
    tower = ShiftTower(2, 5)
    pair = shift_down_pair(tower, 2, 1, 0.9, [1, 0], [1, 0])
    strat = AdaptedStrategy(TowerTransfer(tower, state_density(tower, "trace")))
    with pytest.raises(DepthExceeded):
        unitary_dilate(pair, 1, 2, strat)


def test_matricial_scalar_row_norm():
    pair = scalar_pair(0.6)
    chain = coisometric_extend(pair, 1, AdaptedStrategy(CPMap.identity(SCALARS)))
    rec = explicit_matricial_unitary(chain, 2)
    assert rec.report.passed
    # ambient order: defect-0, H, copy-1, copy-2; the defect row holds X and delta
    u = rec.w.dense()
    offs = {name: s.start for name, s in rec.block_ranges.items()}
    row = offs["copy-1"]
    x_entry = u[row, offs["defect-0"]]
    d_entry = u[row, offs["H"]]
    # X acts on the unit vector W delta* h / ||delta* h||; against the raw
    # H-coordinate h it is -delta T* = -0.48, so the entry is -0.48 / 0.8
    assert abs(abs(x_entry) - 0.6) < 1e-12
    assert abs(abs(x_entry) * 0.8 - 0.48) < 1e-12
    assert abs(abs(d_entry) - 0.8) < 1e-12
    # interior columns are isometric: the defect-0 column holds (0.8, -0.6)
    col = offs["defect-0"]
    assert abs(np.linalg.norm(u[:, col]) - 1.0) < 1e-12
    # two steps on H spread it as (0.36, 0.48, 0.8): squares sum to one
    e_h = np.zeros(rec.total_dim)
    e_h[offs["H"]] = 1.0
    spread = np.linalg.matrix_power(u, 2) @ e_h
    expected = {0.36, 0.48, 0.8}
    got = sorted(abs(v) for v in spread if abs(v) > 1e-13)
    assert np.allclose(got, sorted(expected), atol=1e-12)
    assert abs(np.linalg.norm(spread) - 1.0) < 1e-12


def test_matricial_equivalent_to_composed(corpus):
    from covdilate.equivalence import dilation_intertwiner
    for case in corpus[:5]:
        chain = coisometric_extend(case.pair, case.levels, case.strategy)
        rec1 = schaffer_dilate(chain.as_pair(), case.copies)
        rec2 = explicit_matricial_unitary(chain, case.copies)
        assert rec2.report.passed, case.name
        cert = dilation_intertwiner(rec1, rec2)
        assert cert.verdict == "equivalent"
        assert cert.max_residual <= 1e-6


def test_matricial_unitary_contraction_degenerates():
    rng = np.random.default_rng(13)
    algebra = FiniteDimCStarAlgebra((2,))
    u = algebra.element([haar_unitary(2, rng)])
    alpha = StarHom.inner_automorphism(u)
    pi = Representation.from_multiplicities(algebra, [1])
    system = FiniteDimSystem(algebra, alpha)
    pair = CovariantPair(system, pi, pi(u).conj().T)
    chain = coisometric_extend(pair, 1, AdaptedStrategy(CPMap.from_hom(alpha.inverse())))
    rec = explicit_matricial_unitary(chain, 1)
    assert rec.total_dim == 2
    assert spectral_norm(rec.w.dense()[:2, :2] - pair.contraction) <= 1e-12


def test_compression_sweep_matches_per_power_residuals():
    """The one-sweep compression clause against the per-power residual loop."""
    rng = np.random.default_rng(61)
    u = haar_unitary(6, rng)
    embed = haar_unitary(6, rng)[:, :2]
    t = 0.8 * haar_unitary(2, rng)
    for steps in (0, 1, 4):
        want = max(residual(embed.conj().T @ x, tn) for x, tn in
                   zip(power_orbit(u, embed, steps),
                       power_orbit(t, np.eye(2, dtype=complex), steps)))
        assert abs(_compression(power_orbit(u, embed, steps), t) - want) <= 1e-15


# ---------------------------------------------------------------------------
# the four compression clauses, read off the block pattern
# ---------------------------------------------------------------------------

def _compressions(pair, chain, copies, tol):
    """(clause, record, E, T, steps) for the four compression clauses of the
    records built on one chain: the isometric dilation of the source pair
    and of the chain pair (the composed record), and the two-sided form."""
    iso = schaffer_dilate(pair, copies, tol)
    comp = compose_unitary(chain, copies, tol)
    two = explicit_matricial_unitary(chain, copies, tol)
    return [("dilation/compression", iso, iso.source_embed, pair.contraction, copies),
            ("dilation/compression", comp, comp.source_embed, comp.source_pair.contraction,
             copies),
            ("unitary/compression", comp, comp.origin_embed, pair.contraction,
             min(chain.n_levels, copies)),
            ("matricial/restricts-to-extension", two, two.source_embed, chain.v, copies),
            ("matricial/compression", two, two.origin_embed, pair.contraction, copies)]


def _compression_cases(corpus):
    """(name, clauses, tol) over the corpus, chains unseeded and seeded, the
    tower-deep and tower-wide shapes and the levels fixture."""
    for case in corpus:
        for seed in (None, 17):
            chain = coisometric_extend(case.pair, case.levels, case.strategy, DEFAULT_TOL, seed)
            yield f"{case.name}/{seed}", \
                _compressions(case.pair, chain, case.copies, DEFAULT_TOL), DEFAULT_TOL
    for name, sc in (("tower-deep", build_scenario(TOWER_DEEP)),
                     ("tower-wide", build_scenario(TOWER_WIDE)),
                     ("levels", load_scenario(str(FIXTURE)))):
        chain = coisometric_extend(sc.pair, sc.levels, sc.strategy, sc.tol, sc.seed)
        yield name, _compressions(sc.pair, chain, sc.copies, sc.tol), sc.tol


def _swept(rec, embed, t, steps, tol):
    return _compression(power_orbit(rec.w, embed, steps), t, tol.residual_tol)


def _report_value(rec, name):
    report = verify_isometric_dilation(rec) if name == "dilation/compression" else rec.report
    (c,) = [c for c in report.clauses if c.name == name]
    return c


def test_compressions_read_off_the_block_pattern_equal_the_sweep(corpus):
    """On every package record the stored blocks give E* W^n E = T^n, the
    clause reads exactly 0.0, and the sweep over the power orbit gives the
    same value and pass flag."""
    for name, clauses, tol in _compression_cases(corpus):
        for clause_name, rec, embed, t, steps in clauses:
            where = (name, clause_name)
            assert dilation_mod._powers_compress(rec, embed, t), where
            read = dilation_mod._compression_clause(rec, embed, t, steps, tol)
            swept = _swept(rec, embed, t, steps, tol)
            assert read == swept == 0.0, where
            assert (read <= tol.residual_tol) == (swept <= tol.residual_tol), where
        two = clauses[-1][1]
        for clause_name in ("unitary/compression", "matricial/restricts-to-extension",
                            "matricial/compression"):
            rec = two if clause_name.startswith("matricial") else clauses[1][1]
            c = _report_value(rec, clause_name)
            assert c.residual == 0.0 and c.passed, (name, clause_name)


def _edited(rec, edits):
    """The record with W's blocks updated by ``edits`` (a fresh record, so
    nothing cached carries over)."""
    w = rec.w
    return replace(rec, w=BlockOperator(w.rows, w.cols, {**w.blocks, **edits}))


def _dense_compression(rec, embed, t, steps):
    """max over n of the exact residual(E* W^n E, T^n) on dense matrices."""
    w, e, t = np.asarray(rec.w), np.asarray(embed), np.asarray(t)
    return max(residual(e.conj().T @ np.linalg.matrix_power(w, n) @ e,
                        np.linalg.matrix_power(t, n)) for n in range(steps + 1))


def _records(kind):
    """(record, E, T, steps, tol) of one clause on a finite pair: the
    isometric dilation, or the two-sided form of a two-level chain."""
    pair, strategy = finite_pair(7)
    if kind == "dilation/compression":
        rec = schaffer_dilate(pair, 3)
        return rec, rec.source_embed, pair.contraction, 3, DEFAULT_TOL
    rec = explicit_matricial_unitary(coisometric_extend(pair, 2, strategy), 3)
    return rec, rec.origin_embed, pair.contraction, 3, DEFAULT_TOL


def _counting_sweeps(monkeypatch):
    calls, real = [], dilation_mod._compression

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dilation_mod, "_compression", counted)
    return calls


@pytest.mark.parametrize("kind", ["dilation/compression", "matricial/compression"])
def test_a_block_out_of_the_source_rows_falls_back_and_fails_exactly(monkeypatch, kind):
    """A block X in the source rows outside the source columns (from the
    first copy to H) opens the source rows, which the pivot P keeps from
    being closed as columns: the clause is swept and fails with the exact
    dense value, E* W^2 E = T^2 + X P."""
    rec, embed, t, steps, tol = _records(kind)
    (row,) = dilation_mod._identity_places(embed)
    col = rec.echelon.parts[0][0]
    rng = np.random.default_rng(3)
    x = rng.standard_normal((rec.w.rows[row], rec.w.cols[col])) * 0.5
    bad = _edited(rec, {(row, col): x.astype(complex)})
    assert not dilation_mod._powers_compress(bad, embed, t)
    calls = _counting_sweeps(monkeypatch)
    value = dilation_mod._compression_clause(bad, embed, t, steps, tol)
    assert calls and value > tol.residual_tol
    assert abs(value - _dense_compression(bad, embed, t, steps)) <= 1e-12


@pytest.mark.parametrize("kind", ["dilation/compression", "matricial/compression"])
@pytest.mark.parametrize("size", ["last-bit", "visible"])
def test_an_edited_source_block_of_w_falls_back_to_the_sweep(monkeypatch, kind, size):
    """T's block in W edited in the last bit of one entry, or by 1e-6: the
    blocks no longer equal T's, so the clause is swept.  The last-bit edit
    is valued at its round-off, no longer 0.0; the visible one fails with
    the exact value."""
    rec, embed, t, steps, tol = _records(kind)
    src = dilation_mod._identity_places(rec.source_embed)
    h = next(i for i in src if (i, i) in rec.w.blocks and src[i] == 0)
    block = rec.w.blocks[h, h].copy()
    block[0, 0] = np.nextafter(block[0, 0].real, 2.0) + 1j * block[0, 0].imag \
        if size == "last-bit" else block[0, 0] + 1e-6
    bad = _edited(rec, {(h, h): block})
    assert not dilation_mod._powers_compress(bad, embed, t)
    calls = _counting_sweeps(monkeypatch)
    value = dilation_mod._compression_clause(bad, embed, t, steps, tol)
    assert calls and value > 0.0
    assert value == _swept(bad, embed, t, steps, tol)
    if size == "visible":
        assert value > tol.residual_tol
        assert abs(value - _dense_compression(bad, embed, t, steps)) <= 1e-12


@pytest.mark.parametrize("command", ["dilate", "unitary", "matricial"])
def test_passing_runs_sweep_no_compression_and_build_no_orbit(monkeypatch, command):
    """A passing package run reads the four compression clauses off the
    block pattern: no compression sweep and no power orbit."""
    calls = []

    def refuse(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return call

    monkeypatch.setattr(dilation_mod, "_compression", refuse("_compression"))
    monkeypatch.setattr(dilation_mod, "power_orbit", refuse("power_orbit"))
    scenarios = [build_scenario(demo_fixture(name)) for name in DEMO_NAMES]
    scenarios += [build_scenario(TOWER_WIDE), load_scenario(str(FIXTURE))]
    for sc in scenarios:
        report = run(sc, command)
        assert report["passed"] and calls == [], (sc, command)
