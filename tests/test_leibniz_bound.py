"""``chain/covariance`` by the projection bound, against the full basis sweep.

The clause once took a Leibniz bound over the local units; it now takes
2 ||V - E(V)||_F, E the Frobenius projection onto the intertwiners of the
factor forms of rho o alpha and rho (``numerics.intertwiner_bound``, proof
in the ``extension`` module docstring), labelled a bound, when every part
of the chain's rho has a factor form and the bound is at or below the
threshold.  Here the factor forms reproduce the images they stand for, the
bound is at least the exact absolute maximum over the basis with the pass
flags of the exact sweep, finite chains keep the full sweep, and a passing
``extend`` sweeps nothing inside ``verify_coisometric_extension``.
"""

import itertools
import json
import math
import os

import numpy as np

import covdilate.cli as cli_mod
import covdilate.covariant as covariant_mod
import covdilate.extension as extension_mod
from covdilate.cli import run
from covdilate.covariant import (DirectSumRep, RestrictedRep, ShiftedRep, factor_form,
                                 haar_unitary, usable_depth)
from covdilate.cpmaps import KrausDilation, KrausRep
from covdilate.extension import coisometric_extend, verify_coisometric_extension
from covdilate.numerics import DEFAULT_TOL, basis_sweep, block_slices
from covdilate.scenario import build_scenario
from covdilate.tower import ShiftTower, TowerSystem, standard_rep

from test_commutant_bound import FIXTURES, TOWER_DEEP
from test_kraus_coordinates import _deep_case



def _levels_fixture():
    with open(os.path.join(FIXTURES, "tower-levels.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _depth(chain):
    pair = chain.pair
    return usable_depth(pair.system, [pair.rep, chain.rho], 1, pair.depth)


def _covariance(chain, monkeypatch=None):
    """The clause as shipped, or with the projection bound turned off."""
    if monkeypatch is None:
        report = verify_coisometric_extension(chain)
    else:
        with monkeypatch.context() as m:
            m.setattr(covariant_mod, "intertwiner_bound", lambda x, rows, cols: math.inf)
            report = verify_coisometric_extension(chain)
    return next(c for c in report.clauses if c.name == "chain/covariance")


def _full_basis_max(chain):
    """max over the basis of ||V rho(alpha(a)) - rho(a) V||, exact and absolute."""
    system, rho, v, d = chain.pair.system, chain.rho, chain.v, _depth(chain)
    (value,) = basis_sweep(system.basis_size(d), lambda c: (c, *system.alpha_coords(c, d)),
                           lambda c, ac, ad: rho.act(ac, ad, v, right=True) - rho.act(c, d, v))
    return value


def _chains(corpus):
    """(name, chain): the tower corpus and the rep_depth = 3 tower, seeded
    and not, the tower-deep shape and the levels fixture."""
    cases = [c for c in corpus if c.backend == "tower"] + [_deep_case()]
    for case in cases:
        for seed in (None, 17):
            yield f"{case.name}-seed{seed}", coisometric_extend(
                case.pair, case.levels, case.strategy, DEFAULT_TOL, seed)
    for name, data in (("tower-deep", TOWER_DEEP), ("levels", _levels_fixture())):
        s = build_scenario(data)
        yield name, coisometric_extend(s.pair, s.levels, s.strategy, s.tol, s.seed)


def _lift(form, dim):
    """B and F(a) of a factor form as dense matrices: B stacks the leaves'
    rows, and F(a) is the direct sum of their 1_m (x) a (x) 1_r."""
    rows = [leaf.m * leaf.n * leaf.r for leaf in form]
    b = np.zeros((sum(rows), dim), dtype=complex)
    for leaf, at in zip(form, block_slices(rows)):
        b[at, leaf.span] = np.eye(at.stop - at.start) if leaf.iso is None else leaf.iso

    def f(a):
        out = np.zeros((sum(rows),) * 2, dtype=complex)
        for leaf, at in zip(form, block_slices(rows)):
            out[at, at] = np.kron(np.kron(np.eye(leaf.m), a), np.eye(leaf.r))
        return out
    return b, f


def test_factor_forms_give_the_images():
    """rep(alpha^n(a)) = B* F(a) B over the matrix units a at depth d, for a
    standard rep, a KrausRep, their shifts, a restriction of a direct sum and a
    direct sum holding a restriction; None past a rep's depth."""
    rng = np.random.default_rng(5)
    for k, d in ((2, 2), (2, 3), (3, 2)):
        tower = ShiftTower(k, d + 2)
        system = TowerSystem(tower)
        tower_rep = standard_rep(tower, d + 1, 2)
        kraus = KrausRep(system, d + 2, KrausDilation((3,), np.zeros((k ** (d + 2) * 3, 1))))
        both = DirectSumRep((tower_rep, kraus))
        basis = haar_unitary(both.dim, rng)[:, :7]
        reps = [(tower_rep, 0), (tower_rep, 1), (kraus, 1), (ShiftedRep(kraus, system, 1), 0),
                (RestrictedRep(ShiftedRep(both, system, 1), basis), 0),
                (DirectSumRep((kraus, RestrictedRep(both, basis))), 1)]
        s = k ** d
        for rep, n in reps:
            form = factor_form(system, rep, d, n)
            b, f = _lift(form, rep.dim)
            for i, j in itertools.product(range(s), repeat=2):
                a = np.zeros((s, s))
                a[i, j] = 1.0
                coords, at = system.alpha_coords(a.reshape(1, -1), d, n)
                want = np.asarray(rep.images(coords, at))[0]
                assert np.allclose(b.conj().T @ f(a) @ b, want, atol=1e-13), (k, d, rep, n)
        assert factor_form(system, tower_rep, d + 1, 1) is None
        assert factor_form(system, both, d + 1, 1) is None


def test_bound_covers_the_full_basis_max(corpus, monkeypatch):
    bounded = 0
    for name, chain in _chains(corpus):
        got, want = _covariance(chain), _covariance(chain, monkeypatch)
        assert got.passed == want.passed, name
        assert got.bound and got.passed, name
        assert got.residual >= _full_basis_max(chain), name
        bounded += 1
    assert bounded >= 20


def test_finite_chains_keep_the_full_sweep(corpus, monkeypatch):
    """The chain's relation clauses go through ``covariant.relation_values``,
    which sweeps them once, at the basis size."""
    real = covariant_mod.basis_sweep
    swept = []

    def sweep(*args, **kwargs):
        swept.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(covariant_mod, "basis_sweep", sweep)
    finite = 0
    for case in corpus:
        if case.backend != "finite-dim":
            continue
        chain = coisometric_extend(case.pair, case.levels, case.strategy)
        assert all(factor_form(case.pair.system, p, None, n) is None
                   for p in chain.rho.parts for n in (0, 1)), case.name
        swept.clear()
        verify_coisometric_extension(chain)
        assert swept == [case.pair.system.basis_size(None)], case.name
        finite += 1
    assert finite >= 30


def test_passing_extend_sweeps_nothing_in_the_chain_clauses(monkeypatch):
    """Inside ``verify_coisometric_extension`` nothing is swept: covariance
    is the projection bound, the containment notes come from the frame row
    blocks and restriction is exact."""
    real_verify = extension_mod.verify_coisometric_extension
    real_sweep = covariant_mod.basis_sweep
    inside, swept = [], []

    def verify(*args, **kwargs):
        inside.append(True)
        try:
            return real_verify(*args, **kwargs)
        finally:
            inside.pop()

    def sweep(*args, **kwargs):
        if inside:
            swept.append(args[0])
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "verify_coisometric_extension", verify)
    monkeypatch.setattr(covariant_mod, "basis_sweep", sweep)
    for data in (TOWER_DEEP, _levels_fixture()):
        scenario = build_scenario(data)
        swept.clear()
        report = run(scenario, "extend")
        assert report["passed"]
        assert swept == []
        clauses = {c["name"]: c for c in report["clauses"]}
        assert clauses["chain/covariance"]["residual_kind"] == "bound"
        levels = [n for n in report["notes"] if n.startswith("level ")]
        assert [n.split(":")[0] for n in levels] \
            == [f"level {k}" for k in range(1, data["levels"])]
