"""Chunked evaluation of representations against per-element references.

Every representation evaluates a chunk of coordinate rows as one stack
(``images``); the references below rebuild each value one element at a
time with ``np.kron`` and ``block_diag``.  The span builders must not depend
on the chunk size, a sweep must stay within its byte cap, and a construction
with a proper defect subspace must keep its invariance clauses equal to the
projector form.
"""

import json
import os
import tracemalloc

import numpy as np
import pytest

import covdilate.numerics as numerics_mod
from covdilate.algebra import (FiniteDimCStarAlgebra, Representation, State,
                               gns, left_mult_matrix, verify_star_hom)
from covdilate.cli import run
from covdilate.covariant import (DirectSumRep, QuotientRep, RestrictedRep,
                                 ShiftedRep, basis_images,
                                 extend_representation, haar_unitary,
                                 invariance_residual, two_step, usable_depth)
from covdilate.cpmaps import CPMap, KrausRep, stinespring_minimal
from covdilate.dilation import schaffer_dilate
from covdilate.equivalence import chain_intertwiner, stinespring_intertwiner
from covdilate.extension import (coisometric_extend, defect_decomposition,
                                 verify_coisometric_extension)
from covdilate.numerics import block_diag
from covdilate.scenario import build_scenario, demo_fixture
from covdilate.tower import GradedElement, ShiftTower, alpha_hom

from dense_oracle import RotatedRep
from test_basis_sweep import _projector_invariance
from test_dilation_kernel import gns_strategy, gram_route_extension


# blocks (2, 2) with identity dynamics and T = I_2 + 0.5 I_2: the level-0
# defect space is a proper subspace (dimension 2 of 4) of its dilation space
with open(os.path.join(os.path.dirname(__file__), "fixtures", "finite-proper-defect.json"),
          encoding="utf-8") as _fh:
    PROPER_DEFECT = json.load(_fh)


@pytest.fixture(scope="module")
def proper_defect():
    scenario = build_scenario(PROPER_DEFECT)
    chain = coisometric_extend(scenario.pair, scenario.levels, scenario.strategy,
                               scenario.tol, scenario.seed)
    return scenario, chain


# ---------------------------------------------------------------------------
# per-element references
# ---------------------------------------------------------------------------

def _dilated_blocks(system, x, depth):
    if system.is_tower:
        pad = system.tower.k ** (depth - x.depth)
        return (np.kron(x.mat, np.eye(pad)),)
    return x.blocks


def _shifted(system, x, n):
    for _ in range(n):
        if system.is_tower:
            x = GradedElement(x.tower, x.depth + 1, np.kron(np.eye(x.tower.k), x.mat))
        else:
            x = system.alpha(x)
    return x


def oracle(rep, x):
    """rep(x) for one element, composed from np.kron and block_diag."""
    if isinstance(rep, Representation):
        return rep.hom(x).blocks[0]
    if isinstance(rep, KrausRep):
        blocks = _dilated_blocks(rep.system, x, rep.depth)
        return block_diag([np.kron(b, np.eye(r))
                           for b, r in zip(blocks, rep.dilation.multiplicities)])
    if isinstance(rep, RotatedRep):
        return rep.q @ oracle(rep.inner, x) @ rep.q.conj().T
    if isinstance(rep, RestrictedRep):
        return rep.basis.conj().T @ oracle(rep.inner, x) @ rep.basis
    if isinstance(rep, ShiftedRep):
        return oracle(rep.inner, _shifted(rep.system, x, rep.shifts))
    if isinstance(rep, DirectSumRep):
        return block_diag([oracle(p, x) for p in rep.parts])
    if isinstance(rep, QuotientRep):
        if rep.system.is_tower:
            left = rep.system.left_mult(x, rep.depth)
        else:
            left = left_mult_matrix(x)
        t = rep.lift.reshape(rep.n, rep.h, rep.dim)
        out = np.einsum("mn,nhr->mhr", left, t).reshape(rep.n * rep.h, rep.dim)
        return rep.cmap @ out
    raise TypeError(f"no reference for {type(rep).__name__}")


def _assert_images_match(system, rep, rng, depth_cap=None):
    """images() on random rows and on the basis equals the per-element reference,
    at the deepest admissible depth and one below it on the tower."""
    top = usable_depth(system, [rep], 0, depth_cap)
    depths = [top] if top is None else sorted({top, max(top - 1, 0)})
    for d in depths:
        n = system.basis_size(d)
        rows = np.vstack([rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n)),
                          np.eye(n)[:4]])
        got = np.asarray(rep.images(rows, d))
        for c, img in zip(rows, got):
            want = oracle(rep, system.element_from_coords(c, d))
            assert np.allclose(img, want, rtol=0.0, atol=1e-13), type(rep).__name__


def _reps_of(case_pair, chain, rng):
    """Every representation class a chain and its dilations are made of."""
    ext = chain.levels[0].ext
    yield chain.rho                                  # DirectSum of pi and KrausReps
    yield ext.rho                                    # KrausRep
    yield RotatedRep(ext.rho, haar_unitary(ext.rho.dim, rng))   # KrausRep, rotated
    yield schaffer_dilate(case_pair, 1).eta          # ShiftedRep inside RestrictedRep


def test_images_match_per_element_reference(corpus, built_chains, proper_defect):
    rng = np.random.default_rng(31)
    cases = [(c.pair, built_chains[c.name]) for c in corpus]
    scenario, chain = proper_defect
    cases.append((scenario.pair, chain))
    kinds = set()
    for pair, chain in cases:
        for rep in _reps_of(pair, chain, rng):
            _assert_images_match(pair.system, rep, rng, pair.depth)
            kinds |= _classes(rep)
        if pair.system.is_tower:
            _assert_images_match(pair.system, pair.rep, rng)   # standard_rep
    assert {"Representation", "KrausRep", "RotatedRep", "RestrictedRep",
            "ShiftedRep", "DirectSumRep"} <= kinds


def _classes(rep):
    inner = list(getattr(rep, "parts", ())) + [getattr(rep, "inner", None)]
    return {type(rep).__name__}.union(*[_classes(r) for r in inner if r is not None])


def test_quotient_rep_images_match_left_multiplication(corpus):
    rng = np.random.default_rng(32)
    for backend in ("finite-dim", "tower"):
        case = next(c for c in corpus if c.backend == backend)
        system = case.pair.system
        ext = gram_route_extension(system, case.pair.rep, case.strategy, case.pair.depth)
        assert isinstance(ext.rho, QuotientRep)
        _assert_images_match(system, ext.rho, rng, ext.rho.max_depth)


# ---------------------------------------------------------------------------
# the span builders do not depend on the chunk size
# ---------------------------------------------------------------------------

def _span_outputs(case, chain):
    pair, system = case.pair, case.pair.system
    ext = extend_representation(system, pair.rep, case.strategy, pair.depth)
    step = two_step(pair, ext)
    gns_ext = extend_representation(system, pair.rep, gns_strategy(case), pair.depth)
    cert = stinespring_intertwiner(ext, gns_ext)
    chain_cert = chain_intertwiner(chain, chain)
    rep = ext.report
    values = [rep.extension_residual, rep.commutant_residual, gns_ext.report.extension_residual,
              *cert.residuals.values(), *chain_cert.residuals.values()]
    ints = [rep.minimality_rank, rep.dilation_dim, step.defect_basis.shape[1],
            gns_ext.dilation_dim, gns_ext.report.minimality_rank,
            *[lv.dim for lv in chain.levels]]
    return values, ints, [step.defect_basis, ext.phi_units()]


def _kernel_outputs():
    alg = FiniteDimCStarAlgebra((2, 1))
    rng = np.random.default_rng(33)
    kraus = [haar_unitary(3, rng)[:, :2] for _ in range(2)]
    images = block_diag(alg.split(np.eye(alg.dim)))
    # phi(x) = (K_1* x K_1 + K_2* x K_2) / 2, unital and completely positive
    phi = CPMap(alg, FiniteDimCStarAlgebra((2,)),
                sum(k.conj().T @ images @ k for k in kraus).reshape(alg.dim, 4).T / 2.0)
    data = stinespring_minimal(phi)
    omega = State.from_densities(alg, [np.diag([0.5, 0.25]), np.array([[0.25]])])
    g = gns(alg, omega)
    star = verify_star_hom(alpha_hom(ShiftTower(2, 3), 1))
    return ([data.dilation_residual, g.vector_residual, star.mult_residual,
             star.star_residual],
            [data.minimality_rank, data.dilation_dim, g.cyclic_span_rank, g.embed_dim],
            [data.isometry, g.cyclic])


def _assert_same_outputs(big, one):
    (vals_b, ints_b, arrays_b), (vals_o, ints_o, arrays_o) = big, one
    assert ints_b == ints_o
    assert np.allclose(vals_b, vals_o, rtol=0.0, atol=1e-13)
    for a, b in zip(arrays_b, arrays_o):
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("backend", ["finite-dim", "tower"])
def test_span_builders_do_not_depend_on_the_chunk(monkeypatch, corpus, built_chains,
                                                  backend):
    case = next(c for c in corpus if c.backend == backend and c.levels >= 2)
    big = _span_outputs(case, built_chains[case.name])
    monkeypatch.setattr(numerics_mod, "SWEEP_STACK_BYTES", 1)
    one = _span_outputs(case, coisometric_extend(case.pair, case.levels, case.strategy))
    _assert_same_outputs(big, one)


def test_kernel_builders_do_not_depend_on_the_chunk(monkeypatch):
    big = _kernel_outputs()
    monkeypatch.setattr(numerics_mod, "SWEEP_STACK_BYTES", 1)
    _assert_same_outputs(big, _kernel_outputs())


# ---------------------------------------------------------------------------
# a sweep stays within its byte cap
# ---------------------------------------------------------------------------

CAP = 64 << 10


def _charge(row, *stacks):
    """What a sweep charges one element: its coordinate row plus twice its
    images and clause operators (an image may be built through intermediate
    stacks of its own size)."""
    return 16 * (row + 2 * sum(r * c for r, c in stacks))


def _peak_above_baseline(fn):
    fn()  # first-call caches are not what is measured
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base, out


def test_sweeps_stay_within_the_byte_cap(monkeypatch):
    scenario = build_scenario(demo_fixture("tower"))   # seeded
    pair, system = scenario.pair, scenario.pair.system
    chain = coisometric_extend(pair, scenario.levels, scenario.strategy, scenario.tol,
                               scenario.seed)
    monkeypatch.setattr(numerics_mod, "SWEEP_STACK_BYTES", CAP)

    # verify_coisometric_extension: images rho(a), rho(alpha(a)), pi(a); the
    # restriction and covariance pairs
    d = usable_depth(system, [pair.rep, chain.rho], 1, pair.depth)
    n, total, h = system.basis_size(d), chain.total_dim, pair.space_dim
    one = _charge(n, (total, total), (total, total), (h, h), (total, h), (total, h),
                  (total, total), (total, total))
    peak, _ = _peak_above_baseline(lambda: verify_coisometric_extension(chain))
    assert peak <= CAP + one, (peak, CAP, one)

    # a level's span build (rho_k(A) applied to columns of W_k's shape)
    # keeps only the spanning set it returns; at level 0 one chunk holds
    # several elements, at level 1 one element exceeds the cap
    chunked = []
    for level in chain.levels:
        ext = level.ext
        span_depth = ext.rho.max_depth
        dim, cols = ext.rho.dim, ext.isometry.shape[1]
        rows = system.basis_size(span_depth)
        result = 16 * dim * rows * cols
        one = _charge(rows, (dim, dim), (dim, cols))
        chunked.append(one < CAP)
        peak, span = _peak_above_baseline(
            lambda: basis_images(system, ext.rho, span_depth, ext.isometry))
        assert span.nbytes == result
        assert peak <= result + CAP + one, (peak, result, CAP, one)
    assert chunked == [True, False]


# ---------------------------------------------------------------------------
# a proper defect subspace through the real construction
# ---------------------------------------------------------------------------

def test_proper_defect_subspace_through_the_construction(proper_defect):
    scenario, chain = proper_defect
    for command in ("check", "extend", "dilate", "unitary", "matricial"):
        assert run(scenario, command)["passed"], command
    level = chain.levels[0]
    rho = level.ext.rho
    assert 0 < level.dim < level.ext.dilation_dim
    system = scenario.pair.system
    elements = system.basis(None)

    # two-step/invariance: the level-0 defect space under rho(A)
    got = invariance_residual(system, None, rho, level.defect_basis)
    want = _projector_invariance(elements, rho, level.defect_basis)
    assert abs(got - want) <= 1e-13 and got <= 1e-12

    # a perturbed subspace is not invariant, in both forms alike
    rng = np.random.default_rng(34)
    noise = rng.standard_normal(level.defect_basis.shape) * 1e-4
    bad, _ = np.linalg.qr(level.defect_basis + noise)
    got = invariance_residual(system, None, rho, bad)
    want = _projector_invariance(elements, rho, bad)
    assert want > 1e-6 and abs(got - want) <= 1e-13

    # defect/invariant: D_V under rho(alpha(a)), against the projector form
    dd = defect_decomposition(chain)
    shifted = ShiftedRep(chain.rho, system, 1)
    assert 0 < dd.dv_dim < chain.total_dim
    dv_basis = dd.dv_basis.dense()
    got = invariance_residual(system, None, shifted, dv_basis)
    want = _projector_invariance(elements, shifted, dv_basis)
    assert abs(got - want) <= 1e-13
    clause = next(c for c in dd.report.clauses if c.name == "defect/invariant")
    assert clause.residual == got
