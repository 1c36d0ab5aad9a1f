"""The covariance and intertwining clauses valued by the projection bound,
against their exact sweeps.

``chain/covariance``, ``dilation/covariance``, ``matricial/covariance``,
``dilation/defect-invariant`` and the ``representation_intertwined``
relation of the step, chain and dilation intertwiners take the bound 2 ||X'
- E(X')||_F (``numerics.intertwiner_bound``, widened by the lifts' isometry
defects; proof in the ``extension`` module docstring) when every part has a
factor form and the bound is at or below the threshold.  Here each moved
value is at least the exact absolute maximum over the basis, which is at
least the clause's relative value, with the same pass flag, on the tower
corpus seeded and not, the tower-deep shape, the four tower-wide scenarios
and the levels fixture; perturbed operators and bases get the exact
failing value, bit for bit, and a passing one is a bound on it; the
bound covers random operators between direct sums of unequal leaves; and a
passing tower run sweeps the basis only for the clauses that have no factor
form, while the finite backend still sweeps.  The pair clauses of ``check``
(``pair/covariance`` and the two defect commutators) take the same bound on
the tower, checked the same way.
"""

import json
import math
import os
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covdilate.algebra as algebra_mod
import covdilate.covariant as covariant_mod
import covdilate.cpmaps as cpmaps_mod
import covdilate.dilation as dilation_mod
import covdilate.numerics as numerics_mod
from covdilate.cli import run
from covdilate.covariant import (DirectSumRep, RestrictedRep, ShiftedRep, defect_operators,
                                 factor_form, haar_unitary, relation_values, usable_depth,
                                 verify_covariance)
from covdilate.dilation import compose_unitary, explicit_matricial_unitary, schaffer_dilate
from covdilate.equivalence import (chain_intertwiner, dilation_intertwiner,
                                   stinespring_intertwiner)
from covdilate.extension import (ExtensionChain, coisometric_extend,
                                 verify_coisometric_extension)
from covdilate.numerics import (DEFAULT_TOL, BlockOperator, UpperBound, basis_sweep,
                                intertwiner_bound)
from covdilate.report import ClauseReport
from covdilate.scenario import Scenario, build_scenario
from covdilate.tower import ShiftTower, TowerSystem, standard_rep

from conftest import make_tower_case
from test_commutant_bound import FIXTURES, TOWER_DEEP

EPS = np.finfo(float).eps
TOL = DEFAULT_TOL.residual_tol

# the tower-wide workload's shapes: k = 3, rep_depth = 2, one level and one
# copy, an adapted and two GNS strategies on one pair, and a reseeded GNS
TOWER_WIDE = {
    "schema": 1, "backend": "tower", "k": 3, "d_max": 4, "rep_depth": 2,
    "multiplicity": 1,
    "pair": {"scale": 0.8, "u": [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]],
             "v": [[0.0, 0.0], [0.6, 0.0], [0.0, 0.8]]},
    "strategy": {"kind": "adapted", "phi": "trace"},
    "levels": 1, "copies": 1, "seed": 3,
}
GNS_A = {"kind": "gns", "phi": {"vector": [[0.6, 0.0], [0.0, 0.0], [0.8, 0.0]]}}
GNS_B = {"kind": "gns", "phi": {"vector": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}}


def _fixture(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return json.load(fh)


def _exact(monkeypatch, fn, absolute=False):
    """fn() with every value exact: the threshold ignored and the commutant
    and projection bounds turned off.  With ``absolute`` a pair (A, B) is
    valued ||A - B|| instead of the residual, a value at least as large that
    the bound also covers and that skips the eigensolves of ||A|| and ||B||."""
    real = numerics_mod._clause_max

    def exact(term, threshold=None):
        return real(term[0] - term[1] if absolute and isinstance(term, tuple) else term)

    with monkeypatch.context() as m:
        m.setattr(numerics_mod, "_clause_max", exact)
        m.setattr(covariant_mod, "commutant_bound", lambda *args: math.inf)
        m.setattr(covariant_mod, "intertwiner_bound", lambda x, rows, cols: math.inf)
        return fn()


def _clause_value(report, name):
    c = next(c for c in report.clauses if c.name == name)
    return UpperBound(c.residual) if c.bound else c.residual


def _covariance(rec):
    """The covariance clause of a dilation record alone."""
    rep = ClauseReport()
    dilation_mod._covariance_clause(rep, rec, rec.source_pair, "covariance", "", DEFAULT_TOL)
    return _clause_value(rep, "covariance")


def _intertwined(system, depth, rep1, rep2, u, threshold):
    """``representation_intertwined`` of an intertwiner u of rep1 and rep2
    alone, as the certificates value it: the relation (u, rep2, rep1, 0)."""
    (value,) = relation_values(system, depth, threshold, (u, rep2, rep1, 0))
    return value


def _invariance(rec):
    """``dilation/defect-invariant`` of a record alone (None without copy parts)."""
    pair = rec.source_pair
    d = usable_depth(pair.system, [rec.eta], 1, pair.depth)
    return dilation_mod._copy_invariance(rec, d, DEFAULT_TOL)


def _moved(chain, other, copies):
    """name -> (thunk, threshold, side) of every moved clause of a chain,
    ``other`` a second chain over the same pair (for the intertwiners).
    Each thunk values its clause alone, on records and intertwiners built
    here once; ``side`` is the dimension the clause acts on."""
    system, pair = chain.pair.system, chain.pair
    out = {"chain/covariance": (lambda: _clause_value(verify_coisometric_extension(chain),
                                                      "chain/covariance"),
                                TOL, chain.total_dim)}
    mrec = explicit_matricial_unitary(chain, copies)
    for kind, rec in (("dilate", schaffer_dilate(pair, copies)),
                      ("unitary", compose_unitary(chain, copies)), ("matricial", mrec)):
        out[f"{kind} covariance"] = (lambda rec=rec: _covariance(rec), TOL, rec.total_dim)
        if kind != "matricial":
            out[f"{kind} defect-invariant"] = (lambda rec=rec: _invariance(rec), TOL,
                                               rec.total_dim)
    composed = schaffer_dilate(chain.as_pair(), copies)
    ext1, ext2 = chain.levels[0].ext, other.levels[0].ext
    certs = {"dilation": (dilation_intertwiner(composed, mrec), composed.eta, mrec.eta,
                          usable_depth(system, [composed.eta, mrec.eta], 0, pair.depth),
                          mrec.total_dim),
             "chain": (chain_intertwiner(chain, other), chain.rho, other.rho,
                       usable_depth(system, [chain.rho, other.rho], 0, pair.depth),
                       chain.total_dim),
             "step": (stinespring_intertwiner(ext1, ext2), ext1.rho, ext2.rho,
                      ext1.working_depth, ext1.dilation_dim)}
    for kind, (cert, rep1, rep2, depth, side) in certs.items():
        if cert.intertwiner is not None:
            out[f"{kind} representation_intertwined"] = (
                lambda cert=cert, rep1=rep1, rep2=rep2, depth=depth: _intertwined(
                    system, depth, rep1, rep2, cert.intertwiner, cert.threshold),
                cert.threshold, side)
    return out


def _scenarios(corpus):
    """(name, scenario, other): the tower corpus seeded and not, the
    tower-deep shape, the four tower-wide scenarios and the levels fixture,
    each with a second scenario over its pair."""
    for case in (c for c in corpus if c.backend == "tower"):
        for seed in (None, 17):
            first = Scenario({}, "tower", case.pair.system, case.pair, case.strategy,
                             case.levels, case.copies, DEFAULT_TOL, seed)
            yield f"{case.name}-seed{seed}", first, replace(first, seed=5)
    deep = build_scenario(TOWER_DEEP)
    yield "tower-deep", deep, replace(deep, seed=9)
    trace, gns_a, gns_b = (build_scenario(dict(TOWER_WIDE, strategy=s))
                           for s in (TOWER_WIDE["strategy"], GNS_A, GNS_B))
    yield "tower-wide-trace", trace, replace(trace, seed=11)
    yield "tower-wide-gns-a", gns_a, gns_b
    yield "tower-wide-gns-a-reseeded", replace(gns_a, seed=12), gns_a
    yield "tower-wide-gns-b", gns_b, replace(gns_b, seed=13)
    levels = build_scenario(_fixture("tower-levels.json"))
    yield "levels", levels, build_scenario(_fixture("tower-levels-reseeded.json"))


def _chain(s):
    return coisometric_extend(s.pair, s.levels, s.strategy, s.tol, s.seed)


def test_moved_clauses_cover_their_exact_absolute_values(corpus, monkeypatch):
    bounded, outright = {}, set()
    for name, first, second in _scenarios(corpus):
        for clause, (value, threshold, side) in _moved(_chain(first), _chain(second),
                                                       first.copies).items():
            got, want = value(), _exact(monkeypatch, value, absolute=True)
            where = (name, clause, got, want)
            if got is None:
                assert want is None, where
                continue
            assert not isinstance(want, UpperBound), where
            assert (got <= threshold) == (want <= threshold), where
            if clause.endswith("defect-invariant") and type(got) is float and got == 0.0:
                # copy bases that fill their groups are invariant outright
                assert type(want) is float and want == 0.0, where
                outright.add(clause)
                continue
            # every clause here passes, and the absolute value bounds the relative one
            assert isinstance(got, UpperBound), where
            assert got >= want - side * EPS, where
            bounded[clause] = bounded.get(clause, 0) + 1
    # every moved clause took the bound somewhere, but the copy bases of a
    # pair's own defect, which fill H in every scenario here
    assert set(bounded) == {"chain/covariance", "dilate covariance", "unitary covariance",
                            "matricial covariance", "unitary defect-invariant",
                            "dilation representation_intertwined",
                            "chain representation_intertwined",
                            "step representation_intertwined"}, bounded
    assert outright == {"dilate defect-invariant"}, outright


def _pair_values(pair):
    """name -> thunk of each pair clause of ``check``, on a copy of the pair
    made inside the thunk: the copy holds no covariance certificate, so an
    exact run computes its own."""
    return {"pair/covariance": lambda: verify_covariance(replace(pair)),
            "pair/defect-star-commutes": lambda: defect_operators(pair).pi_commutation,
            "pair/defect-commutes": lambda: defect_operators(pair).pi_alpha_commutation}


def test_pair_clauses_cover_their_exact_absolute_values(corpus, monkeypatch):
    """``pair/covariance`` (T with pi o alpha and pi) and the defect
    commutators ([delta*, pi(a)], and [delta, pi(alpha(a))] with both sides
    pi o alpha) take the projection bound on the tower."""
    bounded, seen = {}, set()
    for name, first, _ in _scenarios(corpus):
        if id(first.pair) in seen:
            continue
        seen.add(id(first.pair))
        for clause, value in _pair_values(first.pair).items():
            got, want = value(), _exact(monkeypatch, value, absolute=True)
            where = (name, clause, got, want)
            assert not isinstance(want, UpperBound), where
            assert (got <= TOL) == (want <= TOL), where
            assert isinstance(got, UpperBound), where
            assert got >= want - first.pair.space_dim * EPS, where
            bounded[clause] = bounded.get(clause, 0) + 1
    assert set(bounded) == {"pair/covariance", "pair/defect-star-commutes",
                            "pair/defect-commutes"}, bounded


# ---------------------------------------------------------------------------
# perturbed operators and bases: the exact failing value
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("drift", [1e-9, 1e-6, 1e-3])
def test_perturbed_pairs_get_the_exact_failing_value(drift, monkeypatch):
    """T of the tower-deep shape (scale 0.7, dim H = 8) perturbed by
    ``drift`` times a Gaussian."""
    pair = build_scenario(TOWER_DEEP).pair
    noisy = replace(pair, contraction=_noisy(pair.contraction, drift,
                                             np.random.default_rng(37)))
    failing = set()
    for name, value in _pair_values(noisy).items():
        got, want = value(), _exact(monkeypatch, value)
        assert not isinstance(want, UpperBound), name
        if want > TOL:
            failing.add(name)
            assert got == want and not isinstance(got, UpperBound), (name, got, want)
        else:
            assert want <= got <= TOL, (name, got, want)
    if drift >= 1e-6:
        assert len(failing) == 3, failing


def _noisy(x, drift, rng):
    return x + drift * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))


def _perturb(op, drift, rng):
    """A block operator with its largest stored block perturbed."""
    key = max(op.blocks, key=lambda k: op.blocks[k].size)
    return BlockOperator(op.rows, op.cols, {**op.blocks, key: _noisy(op.blocks[key], drift, rng)})


def _perturbed_values(drift):
    """name -> (thunk, threshold) of each moved clause on perturbed data of
    the k = 2, rep_depth = 3 tower, where every clause is checked at depth 1."""
    rng = np.random.default_rng(31)
    case = make_tower_case(np.random.default_rng(7), 90, rep_depth=3, n_levels=2)
    chain = coisometric_extend(case.pair, case.levels, case.strategy, DEFAULT_TOL, 3)
    other = coisometric_extend(case.pair, case.levels, case.strategy, DEFAULT_TOL, 4)
    system = case.pair.system
    v = _perturb(chain.v, drift, rng)
    broken = ExtensionChain(chain.pair, chain.strategies, chain.levels, chain.rho, v,
                            chain.block_names, chain.block_dims, chain.basis_seed)
    rec = compose_unitary(chain, 1)
    rec_w = replace(rec, w=_perturb(rec.w, drift, rng))
    parts = list(rec.eta.parts)
    for i, part in enumerate(parts):
        if isinstance(part, RestrictedRep) and part.basis.shape[1]:
            q, _ = np.linalg.qr(_noisy(part.basis, drift, rng))
            parts[i] = RestrictedRep(part.inner, q)
    rec_b = replace(rec, eta=DirectSumRep(tuple(parts)))
    mrec = explicit_matricial_unitary(chain, 1)
    mrec_u = replace(mrec, w=_perturb(mrec.w, drift, rng))
    composed = schaffer_dilate(chain.as_pair(), 1)
    u_dil = _perturb(dilation_intertwiner(composed, mrec).intertwiner, drift, rng)
    d_dil = usable_depth(system, [composed.eta, mrec.eta], 0, chain.pair.depth)
    u_chain = _perturb(chain_intertwiner(chain, other).intertwiner, drift, rng)
    d_chain = usable_depth(system, [chain.rho, other.rho], 0, chain.pair.depth)
    ext1, ext2 = chain.levels[0].ext, other.levels[0].ext
    u_step = _noisy(stinespring_intertwiner(ext1, ext2).intertwiner, drift, rng)
    return {
        "chain/covariance": (lambda: _clause_value(verify_coisometric_extension(broken),
                                                   "chain/covariance"), TOL),
        "dilation/covariance": (lambda: _covariance(rec_w), TOL),
        "dilation/defect-invariant": (lambda: _invariance(rec_b), TOL),
        "matricial/covariance": (lambda: _covariance(mrec_u), TOL),
        "dilation representation_intertwined": (lambda: _intertwined(
            system, d_dil, composed.eta, mrec.eta, u_dil, 1e-6), 1e-6),
        "chain representation_intertwined": (lambda: _intertwined(
            system, d_chain, chain.rho, other.rho, u_chain, 1e-7), 1e-7),
        "step representation_intertwined": (lambda: _intertwined(
            system, ext1.working_depth, ext1.rho, ext2.rho, u_step, 1e-7), 1e-7),
    }


@pytest.mark.parametrize("drift", [1e-9, 1e-6, 1e-3])
def test_perturbations_get_the_exact_failing_value(drift, monkeypatch):
    failing = set()
    values = _perturbed_values(drift)
    for name, (value, threshold) in values.items():
        got = value()
        want = _exact(monkeypatch, value)
        assert not isinstance(want, UpperBound), name
        if want > threshold:
            failing.add(name)
            assert got == want and not isinstance(got, UpperBound), (name, got, want)
        else:
            assert want <= got <= threshold, (name, got, want)
    # every clause fails at 1e-6 and 1e-3; at 1e-9 those at the threshold
    # 1e-8 fail, and the intertwiners (1e-7 and 1e-6) pass by the bound
    assert failing == {name for name, (_, threshold) in values.items()
                       if drift >= 1e-6 or threshold == TOL}, failing


# ---------------------------------------------------------------------------
# random operators between direct sums of unequal leaves
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(k=st.sampled_from([2, 3]), d=st.integers(0, 1),
       rows=st.lists(st.tuples(st.integers(1, 2), st.booleans()), min_size=1, max_size=2),
       cols=st.lists(st.tuples(st.integers(1, 2), st.booleans()), min_size=1, max_size=2),
       restrict=st.booleans(), drift=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 1.0]),
       seed=st.integers(0, 2 ** 16))
def test_bound_covers_random_operators_between_unequal_leaves(k, d, rows, cols, restrict,
                                                              drift, seed):
    """tau and sigma direct sums of standard reps of multiplicities 1 or 2, each
    part shifted once or not, so the leaves (m, R) differ; sigma restricted
    to a random isometry or not.  X is an intertwiner of the lifted forms
    pulled back, plus ``drift`` times a Gaussian."""
    tower = ShiftTower(k, d + 2)
    system = TowerSystem(tower)
    rng = np.random.default_rng(seed)

    def direct_sum(spec):
        return DirectSumRep(tuple(ShiftedRep(standard_rep(tower, d + 2, m), system, 1) if shift
                                  else standard_rep(tower, d + 1, m) for m, shift in spec))

    tau, sigma = direct_sum(rows), direct_sum(cols)
    if restrict:
        sigma = RestrictedRep(sigma, haar_unitary(sigma.dim, rng)[:, :max(1, sigma.dim // 2)])
    form_t, form_s = factor_form(system, tau, d), factor_form(system, sigma, d)
    # an intertwiner of F_sigma and F_tau, leaf pair by leaf pair, pulled back by B_sigma
    x = np.zeros((tau.dim, sum(leaf.m * leaf.n * leaf.r for leaf in form_s)), dtype=complex)
    at = 0
    for p in form_s:
        width = p.m * p.n * p.r
        for q in form_t:
            z = rng.standard_normal((q.m * q.r, p.m * p.r))
            y = np.einsum("acbe,ij->aicbje", z.reshape(q.m, q.r, p.m, p.r), np.eye(p.n))
            x[q.span, at:at + width] = y.reshape(q.m * q.n * q.r, width)
        at += width
    lift = np.zeros((x.shape[1], sigma.dim), dtype=complex)
    at = 0
    for p in form_s:
        width = p.m * p.n * p.r
        lift[at:at + width, p.span] = np.eye(width) if p.iso is None else p.iso
        at += width
    x = _noisy(x @ lift, drift, rng)
    bound = intertwiner_bound(x, form_t, form_s)
    (exact,) = basis_sweep(system.basis_size(d),
                           lambda c: (np.asarray(sigma.images(c, d)),
                                      np.asarray(tau.images(c, d))),
                           lambda s, t: x @ s - t @ x)
    scale = 1.0 + np.linalg.norm(x)
    assert bound >= exact - max(x.shape) * EPS * scale, (bound, exact)
    if drift == 0.0 and not restrict:
        assert exact <= 1e-13 * scale and bound <= 1e-13 * scale, (bound, exact)


# ---------------------------------------------------------------------------
# which clauses still sweep the basis
# ---------------------------------------------------------------------------

SWEEPING = (algebra_mod, covariant_mod, cpmaps_mod, dilation_mod)
# the clause evaluators of covariant, between a site and its sweep
EVALUATORS = {"sweep", "relation_values", "invariance_values", "invariance_residual"}
# the clauses with no factor form: transfer/left-inverse (tau(alpha(a)) =
# a), expectation/idempotent (E(E(a)) = E(a)) and the compressions P_H U^n
# |H = T^n, whose rows are the powers n
NO_FACTOR_FORM = {"verify_transfer", "idempotency_residual", "_compression"}


def _sweep_callers(monkeypatch, runs, *calls):
    """The functions that call ``basis_sweep`` in the runs and the calls; a
    relation or invariance clause is named by the site that hands it to
    ``relation_values`` or ``invariance_values``."""
    callers = set()

    def recording(real):
        def sweep(*args, **kwargs):
            frame = sys._getframe(1)
            while frame.f_code.co_name in EVALUATORS:
                frame = frame.f_back
            callers.add(frame.f_code.co_name)
            return real(*args, **kwargs)
        return sweep

    with monkeypatch.context() as m:
        for mod in SWEEPING:
            m.setattr(mod, "basis_sweep", recording(mod.basis_sweep))
        for scenario, command, other in runs:
            assert run(scenario, command, other)["passed"], command
        for call in calls:
            call()
    return callers


def test_passing_tower_runs_sweep_only_clauses_without_a_factor_form(corpus, monkeypatch):
    trace, gns_a, gns_b = (build_scenario(dict(TOWER_WIDE, strategy=s))
                           for s in (TOWER_WIDE["strategy"], GNS_A, GNS_B))
    levels = build_scenario(_fixture("tower-levels.json"))
    reseeded = build_scenario(_fixture("tower-levels-reseeded.json"))
    runs = [(s, c, None) for s in (trace, gns_a, levels)
            for c in ("extend", "unitary", "matricial")]
    runs += [(gns_a, "compare", gns_b), (gns_a, "compare", replace(gns_a, seed=12)),
             (levels, "compare", reseeded)]
    callers = _sweep_callers(monkeypatch, runs)
    assert callers <= NO_FACTOR_FORM, callers
    # the finite backend still sweeps every relation site
    case = next(c for c in corpus if c.backend == "finite-dim" and c.levels >= 2)
    finite = Scenario({}, "finite-dim", case.pair.system, case.pair, case.strategy,
                      case.levels, case.copies, DEFAULT_TOL, None)
    ext1, ext2 = (coisometric_extend(case.pair, 1, case.strategy, DEFAULT_TOL, seed)
                  .levels[0].ext for seed in (None, 5))
    callers = _sweep_callers(monkeypatch, [(finite, c, None)
                                           for c in ("check", "extend", "unitary", "matricial")]
                             + [(finite, "compare", replace(finite, seed=5))],
                             lambda: stinespring_intertwiner(ext1, ext2))
    assert {"_covariance", "defect_operators", "verify_coisometric_extension",
            "_covariance_clause", "stinespring_intertwiner", "chain_intertwiner",
            "dilation_intertwiner", "_copy_invariance"} <= callers, callers
