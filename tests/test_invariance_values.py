"""``covariant.invariance_values``, the one evaluator of the invariance
clauses ||(I - B B*) g(alpha^s(a)) B||, against a dense oracle.

The extension step's gate (a dense B under a ``KrausRep``), the copy bases
of ``dilation/defect-invariant`` (a dense B under the source of its defect
group, shifted n times, whose images are evaluated) and ``defect/invariant``
(a block B under the chain's rho) are valued here on the corpus, on the
proper-defect scenario and on drifted spans.  Exact values agree with
``dense_oracle.invariance_value`` at round-off, every bound is at least the
exact value, and a failing value is bit-equal to an exact run.  One call
makes one sweep and evaluates each (rep, s) image once per chunk.  The
commutant bound of a multi-leaf form over one algebra block, the bound of
``dilation/defect-invariant`` on the tower, covers the exact sweep on random
subspaces that mix the parts, and a drifted copy basis fails that clause
with its exact value.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covdilate.covariant as covariant_mod
import covdilate.numerics as numerics_mod
from covdilate.algebra import ChunkRep
from covdilate.covariant import (DirectSumRep, factor_form, haar_unitary, invariance_values,
                                 usable_depth)
from covdilate.cpmaps import KrausDilation, KrausRep
from covdilate.dilation import compose_unitary, verify_isometric_dilation
from covdilate.extension import coisometric_extend, defect_decomposition
from covdilate.numerics import DEFAULT_TOL, BlockOperator, UpperBound, as_blocks, commutant_bound
from covdilate.scenario import build_scenario
from covdilate.tower import ShiftTower, TowerSystem

import dense_oracle
from conftest import make_tower_case
from test_stacked_images import PROPER_DEFECT

EPS = np.finfo(float).eps
TOL = DEFAULT_TOL.residual_tol


def _exact_run(monkeypatch, fn):
    """fn() with every value exact: the threshold ignored and the commutant
    bound turned off."""
    real = numerics_mod._clause_max
    with monkeypatch.context() as m:
        m.setattr(numerics_mod, "_clause_max", lambda term, threshold=None: real(term))
        m.setattr(covariant_mod, "commutant_bound", lambda *args: math.inf)
        return fn()


def _drifted(basis, rng, drift):
    noise = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
    q, _ = np.linalg.qr(basis + drift * noise)
    return q


def _copy_items(rec):
    """(depth, (B_c, g, n)) of every copy basis of a record, g the source of
    its defect group, as ``dilation/defect-invariant`` values them."""
    pair = rec.source_pair
    system = pair.system
    d = usable_depth(system, [rec.eta], 1, pair.depth)
    parts = rec.eta.parts[len(as_blocks(pair.contraction).cols):]
    return [(usable_depth(system, [pair.rep], n, pair.depth if d is None else d),
             (part.basis, part.inner.inner, n))
            for part in parts[:len(parts) // rec.copies] for n in range(1, rec.copies + 1)]


def _items(chain, copies, rng=None, drift=0.0):
    """(depth, item) of every invariance clause of a chain and its composed
    dilation: the step gates, D_V and the copy bases, each basis drifted by
    ``drift`` when a generator is given."""
    system = chain.pair.system

    def move(b):
        if rng is None:
            return b
        if isinstance(b, BlockOperator):
            return BlockOperator.diagonal([_drifted(m, rng, drift) if 0 < m.shape[1] < m.shape[0]
                                           else m for m in _diagonal(b)])
        return _drifted(b, rng, drift)

    out = [(lv.ext.rho.max_depth, (move(lv.defect_basis), lv.ext.rho, 0))
           for lv in chain.levels]
    d = usable_depth(system, [chain.rho], 1, chain.pair.depth)
    out.append((d, (move(defect_decomposition(chain).dv_basis), chain.rho, 1)))
    out += [(dd, (move(b), g, n)) for dd, (b, g, n) in _copy_items(compose_unitary(chain, copies))]
    return out


def _diagonal(b):
    return [b.blocks.get((i, i), np.zeros((r, c), dtype=complex))
            for i, (r, c) in enumerate(zip(b.rows, b.cols))]


def _check(system, items, monkeypatch):
    """Every item against the oracle, its bound and its exact run; the
    number of proper items."""
    proper = 0
    for depth, item in items:
        (exact,) = invariance_values(system, depth, None, item)
        (got,) = invariance_values(system, depth, TOL, item)
        (want,) = _exact_run(monkeypatch, lambda: invariance_values(system, depth, TOL, item))
        b, g, s = item
        oracle = dense_oracle.invariance_value(system, depth, b, g, s)
        side = g.dim
        assert abs(exact - oracle) <= 1e-13, (exact, oracle)
        assert not isinstance(exact, UpperBound) and not isinstance(want, UpperBound)
        assert exact == want
        if isinstance(got, UpperBound):
            assert exact - side * EPS <= got <= TOL, (got, exact)
        else:
            assert got == exact, (got, exact)
        diag = _diagonal(b) if isinstance(b, BlockOperator) else [b]
        proper += any(0 < m.shape[1] < m.shape[0] for m in diag)
    return proper


# ---------------------------------------------------------------------------
# the dense oracle
# ---------------------------------------------------------------------------

def test_values_agree_with_the_dense_oracle_on_the_corpus(corpus, monkeypatch):
    proper = 0
    for case in corpus[::3]:
        chain = coisometric_extend(case.pair, case.levels, case.strategy)
        proper += _check(case.pair.system, _items(chain, case.copies), monkeypatch)
    assert proper > 0


def test_values_agree_with_the_dense_oracle_on_a_proper_defect(monkeypatch):
    scenario = build_scenario(PROPER_DEFECT)
    chain = coisometric_extend(scenario.pair, scenario.levels, scenario.strategy,
                               scenario.tol, scenario.seed)
    items = _items(chain, scenario.copies)
    # level 0's step gate, D_V and the copy bases are proper here; level 1's
    # defect space fills its dilation space
    assert _check(scenario.pair.system, items, monkeypatch) == len(items) - 1


@pytest.mark.parametrize("drift", [1e-9, 1e-6, 1e-3])
def test_drifted_spans_agree_with_the_dense_oracle(drift, monkeypatch):
    rng = np.random.default_rng(11)
    tower = make_tower_case(np.random.default_rng(7), 90, rep_depth=3, n_levels=2)
    scenario = build_scenario(PROPER_DEFECT)
    failing = 0
    for pair, strategy, levels, copies in ((tower.pair, tower.strategy, 2, 1),
                                           (scenario.pair, scenario.strategy, 2, 2)):
        chain = coisometric_extend(pair, levels, strategy)
        items = _items(chain, copies, rng, drift)
        assert _check(pair.system, items, monkeypatch) > 0
        failing += sum(invariance_values(pair.system, d, TOL, item)[0] > TOL
                       for d, item in items)
    assert failing > 0 or drift < 1e-6


# ---------------------------------------------------------------------------
# one sweep per call
# ---------------------------------------------------------------------------

class Counting(ChunkRep):
    """A representation that counts the chunks it is evaluated on."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    @property
    def dim(self):
        return self.inner.dim

    @property
    def max_depth(self):
        return self.inner.max_depth

    def images(self, coords, depth):
        self.calls += 1
        return self.inner.images(coords, depth)


def test_one_call_makes_one_sweep_and_evaluates_each_image_once_per_chunk(monkeypatch):
    scenario = build_scenario(PROPER_DEFECT)
    chain = coisometric_extend(scenario.pair, scenario.levels, scenario.strategy,
                               scenario.tol, scenario.seed)
    system = chain.pair.system
    level = chain.levels[0]
    rho, basis = level.ext.rho, level.defect_basis
    dv = defect_decomposition(chain).dv_basis
    pi = Counting(chain.pair.rep)
    rng = np.random.default_rng(2)
    q = haar_unitary(pi.dim, rng)[:, :1]
    items = [(basis, rho, 0), (q, pi, 1), (q[:, ::-1], pi, 1), (q, pi, 0), (dv, chain.rho, 1)]
    alone = [invariance_values(system, None, None, item)[0] for item in items]

    sweeps, chunks = [], []
    real = covariant_mod.basis_sweep

    def sweep(rows, images, *clauses, **kwargs):
        def counted(c):
            chunks.append(len(c))
            return images(c)
        sweeps.append(len(clauses))
        return real(rows, counted, *clauses, **kwargs)

    def no_images(*args):
        raise AssertionError("a KrausRep image was formed")

    monkeypatch.setattr(covariant_mod, "basis_sweep", sweep)
    monkeypatch.setattr(KrausRep, "images", no_images)
    pi.calls = 0
    got = invariance_values(system, None, None, *items)
    assert sweeps == [len(items)]
    assert sum(chunks) == system.basis_size(None)
    # pi o alpha and pi, once each per chunk; rho and the chain's rho act
    # through their frame kernels
    assert pi.calls == 2 * len(chunks)
    assert got == alone


# ---------------------------------------------------------------------------
# the commutant form of a copy group on the tower
# ---------------------------------------------------------------------------

def _mixed_invariant_span(form, dim, rng, fraction):
    """Orthonormal columns Q (x) C^n of a subspace invariant under the leaves
    of ``form``, all over one algebra block of side n: Q mixes the
    multiplicity spaces C^(m_l r_l) of every leaf."""
    n = form[0].n
    total = sum(leaf.m * leaf.r for leaf in form)
    q = haar_unitary(total, rng)[:, :max(1, int(fraction * total))]
    cols = []
    for i in range(n):
        col = np.zeros((dim, q.shape[1]), dtype=complex)
        at = 0
        for leaf in form:
            m, r = leaf.m, leaf.r
            col[leaf.span].reshape(m, n, r, -1)[:, i] = q[at:at + m * r].reshape(m, r, -1)
            at += m * r
        cols.append(col)
    return np.hstack(cols)


@settings(max_examples=30, deadline=None)
@given(k=st.sampled_from([2, 3]), mults=st.lists(st.integers(1, 2), min_size=2, max_size=3),
       shifts=st.integers(1, 2), drift=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 1.0]),
       seed=st.integers(0, 2**16))
def test_multi_leaf_bound_covers_the_exact_value_on_mixed_subspaces(k, mults, shifts, drift,
                                                                    seed):
    top = 5 - k
    system = TowerSystem(ShiftTower(k, top + 1))
    parts = tuple(KrausRep(system, top, KrausDilation((r,), np.zeros((k ** top * r, 1))))
                  for r in mults)
    group = DirectSumRep(parts)
    rng = np.random.default_rng(seed)
    for d in range(top - shifts + 1):
        form = factor_form(system, group, d, shifts)
        assert len(form) == len(parts) and {leaf.block for leaf in form} == {0}
        basis = _drifted(_mixed_invariant_span(form, group.dim, rng, rng.uniform(0.2, 0.8)),
                         rng, drift)
        if basis.shape[1] == group.dim:
            continue
        (exact,) = invariance_values(system, d, None, (basis, group, shifts))
        bound = commutant_bound(basis, form)
        # on an invariant span both values are round-off, of no fixed order
        assert bound >= exact - group.dim * EPS, (d, bound, exact)
        (got,) = invariance_values(system, d, TOL, (basis, group, shifts))
        if bound <= TOL:
            assert isinstance(got, UpperBound) and got == bound
        elif got > TOL:
            assert got == exact
        else:
            assert exact - group.dim * EPS <= got


def test_a_drifted_copy_basis_fails_with_its_exact_value(monkeypatch):
    case = make_tower_case(np.random.default_rng(7), 90, rep_depth=3, n_levels=2)
    chain = coisometric_extend(case.pair, 2, case.strategy)
    # one copy keeps basis depth 1; at depth 0 a is a scalar and any span is
    # invariant
    rec = compose_unitary(chain, 1)

    def clause():
        return next(c for c in verify_isometric_dilation(rec).clauses
                    if c.name == "dilation/defect-invariant")

    assert clause().passed and clause().bound
    first = rec.eta.parts[len(chain.rho.parts)]
    first.basis = _drifted(first.basis, np.random.default_rng(4), 1e-4)
    got, want = clause(), _exact_run(monkeypatch, clause)
    assert not got.passed and not got.bound and got.residual > TOL
    assert got.residual == want.residual
    system = rec.source_pair.system
    oracle = max(dense_oracle.invariance_value(system, depth, *item)
                 for depth, item in _copy_items(rec))
    assert abs(got.residual - oracle) <= 1e-13
