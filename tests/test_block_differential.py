"""Block-operator clause values against the dense route they replaced.

The chain, the defect decomposition and both unitary dilations keep their
operators as :class:`~covdilate.numerics.BlockOperator` s and reduce every
whole-space clause per component of the block pattern.  Here each such
clause is recomputed by the dense code in ``dense_oracle`` on the same
objects: exact values agree to 1e-13 (1 + operator scale), pass flags and
dimensions are equal, and the isometric dilation of a chain is certified
unitarily equivalent to the dense one.  The component lemma itself is
checked against ``np.linalg.norm`` on random block patterns, a thresholded
clause value (bounds from the stored blocks, exact values of the slices
above the threshold) against the per-slice dense values, a block off V's
pattern must fail the chain clauses with the dense value, and a perturbed
interior block of U the interior unitarity clause.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import covdilate.algebra as algebra_mod
import covdilate.covariant as covariant_mod
import covdilate.numerics as numerics_mod
from covdilate.dilation import (_blocks_within, _interior_clauses, _matricial_clauses,
                                _unitary_clauses, compose_unitary,
                                explicit_matricial_unitary, schaffer_dilate,
                                verify_isometric_dilation)
from covdilate.equivalence import dilation_intertwiner
from covdilate.extension import (ExtensionChain, coisometric_extend,
                                 defect_decomposition, verify_coisometric_extension)
from covdilate.numerics import DEFAULT_TOL, BlockOperator, residual, spectral_norm
from covdilate.report import ClauseReport
from covdilate.scenario import DEMO_NAMES, build_scenario, demo_fixture

import dense_oracle
from conftest import make_tower_case

AGREE = 1e-13


def _exact(monkeypatch, fn):
    """fn() with every clause value exact: the threshold ignored and the
    projection bound of the covariance clauses turned off, so that they are
    swept.  No certificate held by a scenario's objects is reused: each one
    fn() asks for is computed in the exact run."""
    real = numerics_mod._clause_max
    with monkeypatch.context() as m:
        m.setattr(numerics_mod, "_clause_max", lambda term, threshold=None: real(term))
        m.setattr(covariant_mod, "intertwiner_bound", lambda x, rows, cols: math.inf)
        for mod in (algebra_mod, covariant_mod):
            m.setattr(mod, "certified", lambda obj, key, compute: compute())
        return fn()


def _agree(shipped: ClauseReport, exact: ClauseReport, dense: dict, where):
    got = {c.name: c for c in exact.clauses}
    flags = {c.name: c for c in shipped.clauses}
    assert set(dense) <= set(got), (where, set(dense) - set(got))
    for name, (value, scale) in dense.items():
        assert abs(got[name].residual - value) <= AGREE * (1.0 + scale), \
            (where, name, got[name].residual, value)
        assert flags[name].passed == (value <= flags[name].threshold), (where, name)


def _inputs(corpus):
    """(name, pair, strategy, levels, copies, seed): the demo fixtures, the
    test corpus and a k = 2, rep_depth = 3, two-level tower."""
    for name in DEMO_NAMES:
        sc = build_scenario(demo_fixture(name))
        yield name, sc.pair, sc.strategy, sc.levels, sc.copies, sc.seed
    for case in corpus:
        yield case.name, case.pair, case.strategy, case.levels, case.copies, None
    deep = make_tower_case(np.random.default_rng(7), 90, rep_depth=3, n_levels=2)
    yield "tower-rep-depth-3", deep.pair, deep.strategy, 2, 1, 3


def test_block_clauses_match_the_dense_route(corpus, monkeypatch):
    tol = DEFAULT_TOL
    checked = set()
    for name, pair, strategy, levels, copies, seed in _inputs(corpus):
        chain = coisometric_extend(pair, levels, strategy, tol, seed)

        # extend
        dd = defect_decomposition(chain, tol)
        shipped = verify_coisometric_extension(chain, tol)
        shipped.extend(dd.report)
        exact = _exact(monkeypatch, lambda: verify_coisometric_extension(chain, tol))
        exact.extend(_exact(monkeypatch, lambda: defect_decomposition(chain, tol)).report)
        dense = dense_oracle.chain_values(chain, tol)
        defect, rank = dense_oracle.defect_values(chain, dd, tol)
        _agree(shipped, exact, {**dense, **defect}, f"{name}-extend")
        onto = next(c for c in shipped.clauses if c.name == "defect/row-onto")
        assert onto.note == f"rank {rank} of {dd.dv_dim}", name
        checked.add("extend")

        if levels > 2 and pair.system.is_tower:
            continue     # the exact dilation clauses of three tower levels take seconds

        # unitary: the composed route on the same chain
        rec = compose_unitary(chain, copies, tol)
        shipped = verify_isometric_dilation(rec, tol)
        shipped.extend(rec.report)
        exact = _exact(monkeypatch, lambda: verify_isometric_dilation(rec, tol))
        exact.extend(_exact(monkeypatch, lambda: _unitary_clauses(rec, levels, tol)))
        _agree(shipped, exact, dense_oracle.dilation_values(rec, "unitary", tol),
               f"{name}-unitary")
        reference = dense_oracle.dense_schaffer_dilate(chain.as_pair(), copies, tol)
        assert rec.block_dims == reference.block_dims, name
        assert dilation_intertwiner(reference, rec, tol).verdict == "equivalent", name

        # matricial, with its verdict against the composed route both ways
        mrec = explicit_matricial_unitary(chain, copies, tol)
        exact = _exact(monkeypatch, lambda: _matricial_clauses(
            mrec, defect_decomposition(chain, tol), tol))
        _agree(mrec.report, exact, {**defect, **dense_oracle.dilation_values(
            mrec, "matricial", tol)}, f"{name}-matricial")
        composed = schaffer_dilate(chain.as_pair(), copies, tol)
        assert dilation_intertwiner(composed, mrec, tol).verdict \
            == dilation_intertwiner(reference, mrec, tol).verdict, name
        checked |= {"unitary", "matricial"}
    assert checked == {"extend", "unitary", "matricial"}


# ---------------------------------------------------------------------------
# the component lemma
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
       st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=10**6))
def test_component_values_are_the_dense_values(rows, cols, seed):
    rng = np.random.default_rng(seed)
    keys = [(i, j) for i in range(len(rows)) for j in range(len(cols))
            if rng.random() < 0.4]
    ops = []
    for _ in range(2):
        blocks = {(i, j): rng.standard_normal((rows[i], cols[j]))
                  + 1j * rng.standard_normal((rows[i], cols[j])) for i, j in keys}
        ops.append(BlockOperator(rows, cols, blocks))
    a, b = ops
    dense_a, dense_b = np.asarray(a), np.asarray(b)
    assert dense_a.shape == (sum(rows), sum(cols))

    # per component: the norm, the squared Frobenius norm, the entry maximum
    parts = a.component_blocks()
    assert len(parts) == len(a.components())
    norm = max([np.linalg.norm(p, 2) for p in parts if p.size] + [0.0])
    frob2 = sum(np.linalg.norm(p) ** 2 for p in parts)
    peak = max([np.abs(p).max() for p in parts if p.size] + [0.0])
    want_norm = np.linalg.norm(dense_a, 2) if dense_a.size else 0.0
    assert abs(norm - want_norm) <= 1e-12 * (1.0 + want_norm)
    assert abs(frob2 - np.linalg.norm(dense_a) ** 2) <= 1e-12 * (1.0 + frob2)
    assert peak == (np.abs(dense_a).max() if dense_a.size else 0.0)

    # the package's kernel: spectral norm, residual and its threshold bound
    assert abs(spectral_norm(a) - want_norm) <= 1e-12 * (1.0 + want_norm)
    want = residual(dense_a, dense_b) if dense_a.size else 0.0
    assert abs(residual(a, b) - want) <= 1e-12
    bound = residual(a, b, threshold=np.inf)
    assert bound >= want * (1.0 - 1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
       st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
       st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10**6))
def test_thresholded_values_match_the_per_slice_dense_values(rows, cols, m, seed):
    """With a threshold the bounds come from the stored blocks, and only the
    slices above it are padded and valued exactly: per slice the value is
    the dense residual when the dense Frobenius bound is above the threshold,
    else that bound.  A stacked pair (some blocks shared by every slice, some
    missing from one operand)."""
    rng = np.random.default_rng(seed)
    keys = [(i, j) for i in range(len(rows)) for j in range(len(cols)) if rng.random() < 0.5]

    def block(i, j):
        shape = (m, rows[i], cols[j]) if rng.random() < 0.7 else (rows[i], cols[j])
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a = BlockOperator(rows, cols, {k: block(*k) for k in keys if rng.random() < 0.8})
    b = BlockOperator(rows, cols, {k: block(*k) for k in keys if rng.random() < 0.8})
    dense_a = np.broadcast_to(np.asarray(a), (m, sum(rows), sum(cols)))
    dense_b = np.broadcast_to(np.asarray(b), (m, sum(rows), sum(cols)))
    bounds = [np.linalg.norm(x - y) / (1.0 + max(np.abs(x).max(initial=0.0),
                                                   np.abs(y).max(initial=0.0)))
              for x, y in zip(dense_a, dense_b)]
    # a threshold between two slices' bounds (or past either end), away from
    # every bound, so that round-off cannot move a slice across it
    ends = sorted([0.0] + bounds + [2.0 * max(bounds) + 1.0])
    k = int(rng.integers(len(ends) - 1))
    threshold = 0.5 * (ends[k] + ends[k + 1])
    assume(min(abs(bound - threshold) for bound in bounds) > 1e-9 * (1.0 + threshold))
    want = max([residual(x, y) if bound > threshold else bound
                for x, y, bound in zip(dense_a, dense_b, bounds)] + [0.0])
    got = numerics_mod._clause_max((a, b), threshold)
    assert abs(got - want) <= 1e-12 * (1.0 + want), (got, want)


def test_differences_products_and_adjoints_are_dense_ones():
    rng = np.random.default_rng(3)
    dims = (2, 0, 3)

    def random_op(keys):
        return BlockOperator(dims, dims, {k: rng.standard_normal((dims[k[0]], dims[k[1]]))
                                          for k in keys})

    a = random_op([(0, 0), (0, 2), (2, 1), (1, 1)])
    b = random_op([(2, 0), (2, 2), (0, 2)])
    x = rng.standard_normal((5, 4))
    for got, want in ((a @ b, np.asarray(a) @ np.asarray(b)),
                      (a - b, np.asarray(a) - np.asarray(b)),
                      (a.adjoint(), np.asarray(a).conj().T),
                      (a.select(rows=[2], cols=[0, 2]), np.asarray(a)[2:, :])):
        assert np.allclose(np.asarray(got), want, atol=1e-14)
    assert np.allclose(a @ x, np.asarray(a) @ x, atol=1e-14)
    assert all(0 not in (dims[i], dims[j]) for i, j in a.blocks)


# ---------------------------------------------------------------------------
# a block off the pattern
# ---------------------------------------------------------------------------

def test_misplaced_block_fails_with_the_dense_value():
    sc = build_scenario(demo_fixture("automorphism"))
    chain = coisometric_extend(sc.pair, sc.levels, sc.strategy, sc.tol, sc.seed)
    v = chain.v
    # V maps defect-0 into H only; give it a block from H into defect-0
    rng = np.random.default_rng(11)
    stray = 0.3 * rng.standard_normal((v.rows[1], v.cols[0]))
    broken_v = BlockOperator(v.rows, v.cols, {**v.blocks, (1, 0): stray})
    broken = ExtensionChain(chain.pair, chain.strategies, chain.levels, chain.rho,
                            broken_v, chain.block_names, chain.block_dims, None)
    rep = verify_coisometric_extension(broken)
    got = {c.name: c for c in rep.clauses}
    dense = dense_oracle.chain_values(broken)
    for name in ("chain/covariance", "chain/coisometry"):
        assert not got[name].passed, name
        value, scale = dense[name]
        assert value > got[name].threshold
        assert abs(got[name].residual - value) <= AGREE * (1.0 + scale), name


def test_perturbed_interior_block_fails_isometric_interior_with_the_dense_value():
    """The interior clauses are decided against the threshold: the composed
    unitary passes them by a bound, and a perturbed interior block of U
    fails ``isometric-interior`` with the exact dense value."""
    sc = build_scenario(demo_fixture("automorphism"))
    chain = coisometric_extend(sc.pair, sc.levels, sc.strategy, sc.tol, sc.seed)
    rec = compose_unitary(chain, sc.copies, sc.tol)
    name = "unitary/isometric-interior"
    healthy = {c.name: c for c in _interior_clauses(rec, "unitary", sc.tol).clauses}
    assert healthy[name].passed and healthy[name].bound
    # T, the block from H into H: column H is interior
    u = rec.w
    assert 0 not in _blocks_within(u.cols, np.concatenate(
        [rec.boundary_rows, rec.boundary_cols]).astype(int))
    rng = np.random.default_rng(13)
    noise = 0.3 * rng.standard_normal(u.blocks[(0, 0)].shape)
    broken = replace(rec, w=BlockOperator(u.rows, u.cols,
                                          {**u.blocks, (0, 0): u.blocks[(0, 0)] + noise}))
    got = {c.name: c for c in _interior_clauses(broken, "unitary", sc.tol).clauses}[name]
    value, scale = dense_oracle.dilation_values(broken, "unitary", sc.tol)[name]
    assert not got.passed and not got.bound and value > got.threshold
    assert abs(got.residual - value) <= AGREE * (1.0 + scale), (got.residual, value)
