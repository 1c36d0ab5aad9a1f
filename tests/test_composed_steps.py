"""Chain levels composed from the transfer's Kraus form against the Choi route.

Every adapted level above the first dilates phi_k = pi_hat_(k-1) o tau with
the same transfer, and the package composes its minimal dilation from the
Kraus form of tau (``cpmaps.KrausTransfer``) instead of eigendecomposing the
Choi blocks of phi_k; so does level 0 on the tower, whose pi is a KrausRep.
Here the composition rule is checked on random finite maps against the
dense Choi route, whole chains are certified equivalent to the chains of
the Choi route (``dense_oracle.choi_route_chain``), the invariance gate of
every level, ||(I - B B*) rho(a) B|| through the frame kernel, is
recomputed with the dense complement of its defect basis, and an adapted
tower extend is held to eigensolves no larger than the Choi matrix of tau,
with the transfer's one eigensolve that of its k x k density.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covdilate.algebra import FiniteDimCStarAlgebra, Representation, StarHom
from covdilate.covariant import (FiniteDimSystem, covariant_pair, frame_rank,
                                 invariance_residual, span_frame)
from covdilate.cpmaps import (CPMap, KrausDilation, KrausRep, choi_cut,
                              kraus_dilation, transfer_kraus,
                              unit_image_chois)
from covdilate.equivalence import chain_intertwiner
from covdilate.extension import (coisometric_extend, defect_decomposition,
                                 verify_coisometric_extension)
from covdilate.numerics import DEFAULT_TOL, Tolerance, residual
from covdilate.scenario import build_scenario

import dense_oracle
from conftest import held_kraus_form, make_tower_case
from test_stacked_images import PROPER_DEFECT


def random_unital_cp(algebra, kraus: int, rng) -> CPMap:
    """tau_c(x) = V_c* (directsum_b x_b (x) I_kraus) V_c on each block c, V_c
    a random isometry: a unital CP map of the algebra into itself."""
    rho = Representation.from_multiplicities(algebra, (kraus,) * len(algebra.block_sizes))
    isos = []
    for n in algebra.block_sizes:
        z = rng.standard_normal((rho.space_dim, n)) + 1j * rng.standard_normal((rho.space_dim, n))
        isos.append(np.linalg.qr(z)[0])
    return CPMap.from_images(algebra, algebra, [
        algebra.element([v.conj().T @ rho(e) @ v for v in isos]) for e in algebra.basis()])


def choi_route_dilation(system, rep, tau, tol):
    """kraus_dilation on the dense Choi blocks of rep o tau."""
    view = system.algebra
    units = rep.images(tau.matrix.T, None)
    return kraus_dilation(view, unit_image_chois(view, units, rep.dim), tol)


@settings(max_examples=40, deadline=None)
@example(blocks=[2, 1], kraus=1, mults=[1, 1, 0], drop_top=True, seed=0)
@given(blocks=st.lists(st.integers(1, 3), min_size=2, max_size=3),
       kraus=st.integers(1, 2),
       mults=st.lists(st.integers(0, 2), min_size=3, max_size=3),
       drop_top=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_composition_rule_is_the_choi_route(blocks, kraus, mults, drop_top, seed):
    rng = np.random.default_rng(seed)
    algebra = FiniteDimCStarAlgebra(tuple(blocks))
    system = FiniteDimSystem(algebra, StarHom.identity(algebra))
    tau = random_unital_cp(algebra, kraus, rng)
    form = transfer_kraus(system, tau, None, None)
    tops = [top for _, top in form.edges]
    mults = list(mults[:len(blocks)])
    top_c = int(np.argmax(tops))
    if drop_top:
        # the component holding tau's top Choi eigenvalue gets no copies
        mults[top_c] = 0
    if not any(mults):
        mults[(top_c + 1) % len(blocks)] = 1
    tol = DEFAULT_TOL
    live = [c for c, r in enumerate(mults) if r]
    live_top = max(tops[c] for c in live)
    edge = drop_top and live_top < max(tops)
    if edge:
        # a cutoff between a live eigenvalue's share of the live top and of
        # tau's top: only the rank rule over the live components keeps it.
        # The map is scaled by 10 (CP, not unital), so that every top stays
        # above rank_eps and the cutoff is rank_eps times the top.
        low = min(vals[vals > 1e-6].min(initial=np.inf)
                  for c in live for vals, _ in form.kraus[c])
        eps = low / np.sqrt(live_top * max(tops))
        tol = Tolerance(eps, max(eps, DEFAULT_TOL.residual_tol), DEFAULT_TOL.psd_floor)
        tau = CPMap(algebra, algebra, 10.0 * tau.matrix)
        form = transfer_kraus(system, tau, None, None, tol)
    dim = sum(n * r for n, r in zip(blocks, mults))
    rep = KrausRep(system, None, KrausDilation(tuple(mults), np.zeros((dim, 1), dtype=complex)))

    composed = form.compose(rep)
    dense = choi_route_dilation(system, rep, tau, tol)
    assert composed.multiplicities == dense.multiplicities
    assert composed.dim == dense.dim
    if edge:
        cut_all = choi_cut((min(low for low, _ in form.edges),
                            max(top for _, top in form.edges)), tol)
        kept_all = tuple(sum(r * np.count_nonzero(form.kraus[c][b][0] > cut_all)
                             for c, r in enumerate(mults)) for b in range(len(blocks)))
        assert kept_all != composed.multiplicities
        return

    # W* rho(x) W = phi(x) over the basis, and span rho(A) W is everything
    w = composed.isometry
    rho = KrausRep(system, None, composed)
    basis = np.eye(algebra.dim)
    got = w.conj().T @ rho.images(basis, None) @ w
    want = rep.images(tau.matrix.T, None)
    assert max(residual(a, b) for a, b in zip(got, want)) <= 1e-12
    assert residual(w.conj().T @ w, np.eye(dim)) <= 1e-12
    assert frame_rank(span_frame(system, rho, None, w)) == composed.dim


def _multiplicities(chain):
    return [(lv.ext.rho.dilation.multiplicities, lv.pi_hat.dilation.multiplicities)
            for lv in chain.levels]


def test_composed_chains_are_the_choi_route_chains(corpus):
    deep = make_tower_case(np.random.default_rng(7), 90, rep_depth=3, n_levels=2)
    cases = [(c.name, c.pair, c.strategy, c.levels, None) for c in corpus]
    cases.append(("tower-rep-depth-3", deep.pair, deep.strategy, 2, 3))
    composed_levels = 0
    for name, pair, strategy, levels, seed in cases:
        chain = coisometric_extend(pair, levels, strategy, DEFAULT_TOL, seed)
        oracle = dense_oracle.choi_route_chain(pair, levels, strategy, DEFAULT_TOL, seed)
        assert chain.block_dims == oracle.block_dims, name
        assert _multiplicities(chain) == _multiplicities(oracle), name
        cert = chain_intertwiner(chain, oracle)
        assert cert.verdict == "equivalent", (name, cert.residuals)
        composed_levels += sum(held_kraus_form(lv.ext) is not None for lv in chain.levels)
    assert composed_levels > 10


def test_frame_complement_gate_is_the_dense_complement_gate(built_chains):
    # exact values of the two_step gate, in the projector form through the
    # frame kernel, against the dense complement of the defect basis
    proper = build_scenario(PROPER_DEFECT)
    chains = {**built_chains, "proper-defect": coisometric_extend(
        proper.pair, proper.levels, proper.strategy, proper.tol, proper.seed)}
    checked = 0
    for name, chain in chains.items():
        system = chain.pair.system
        for level in chain.levels:
            rho, basis = level.ext.rho, level.defect_basis
            got = invariance_residual(system, rho.max_depth, rho, basis)
            dense, _ = dense_oracle.complement_invariance(system, rho.max_depth, rho, basis)
            assert abs(got - dense) <= 1e-13, name
            checked += 0 < basis.shape[1] < rho.dim
    assert checked > 0


def _eigh_sides(monkeypatch) -> list:
    """The side of every ``np.linalg.eigh`` call from now on, in order."""
    sides = []
    real = np.linalg.eigh

    def recording(a, *args, **kwargs):
        sides.append(np.shape(a)[-1])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return sides


def test_adapted_extend_solves_no_eigenproblem_larger_than_choi_of_tau(monkeypatch):
    """On the k = 2, rep_depth = 3, two-level tower the level-1 Choi matrix
    has side 8 * 32 = 256; Choi(tau), with tau's values in the working stage
    M_8, has side 8 * 8 = 64."""
    case = make_tower_case(np.random.default_rng(7), 90, rep_depth=3, n_levels=2)
    stage = case.pair.system.tower.stage_dim(case.pair.depth + 1)
    sides = _eigh_sides(monkeypatch)
    chain = coisometric_extend(case.pair, case.levels, case.strategy, DEFAULT_TOL, 3)
    assert verify_coisometric_extension(chain).passed
    assert defect_decomposition(chain).report.passed
    assert held_kraus_form(chain.levels[1].ext) is not None
    assert sides and max(sides) <= stage * stage, sides


def test_one_transfer_eigensolve_serves_every_level(monkeypatch):
    # three levels on the rep_depth = 2 tower: pi is a KrausRep of the
    # working stage, so every level, level 0 included, is composed from the
    # one Kraus form of the transfer, which the tower builds in closed form
    # from one eigensolve of the k x k density: none has the side 4 * 4 of
    # Choi(tau)
    case = make_tower_case(np.random.default_rng(8), 91, rep_depth=2, n_levels=3)
    stage = case.pair.system.tower.stage_dim(case.pair.depth + 1)
    sides = _eigh_sides(monkeypatch)
    chain = coisometric_extend(case.pair, 3, case.strategy)
    forms = [held_kraus_form(lv.ext) for lv in chain.levels]
    assert None not in forms and len({id(form) for form in forms}) == 1
    assert sides.count(stage * stage) == 0, sides
    assert sides.count(case.pair.system.tower.k) == 1, sides


def test_a_rep_deeper_than_the_working_stage_composes_every_level():
    """pi at depth 3, re-paired at check depth 1, so the working stage is 2:
    level 0's Kraus form targets pi's stage and the levels above target the
    working stage, one form each, and the chain is the Choi route's."""
    case = make_tower_case(np.random.default_rng(9), 92, rep_depth=3, n_levels=2)
    deep = covariant_pair(case.pair.system, case.pair.rep, case.pair.contraction, depth=1)
    assert deep.rep.depth == 3 and deep.system.stinespring_depth(deep.depth) == 2
    chain = coisometric_extend(deep, 3, case.strategy, DEFAULT_TOL, 5)
    assert chain.n_levels == 3
    level0, *above = forms = [held_kraus_form(lv.ext) for lv in chain.levels]
    assert None not in forms
    assert level0.target_sizes == (8,) and {id(k) for k in above} == {id(above[0])}
    assert above[0].target_sizes == (4,)
    assert verify_coisometric_extension(chain).passed
    assert defect_decomposition(chain).report.passed
    oracle = dense_oracle.choi_route_chain(deep, 3, case.strategy, DEFAULT_TOL, 5)
    assert chain.block_dims == oracle.block_dims
    assert _multiplicities(chain) == _multiplicities(oracle)
    cert = chain_intertwiner(chain, oracle)
    assert cert.verdict == "equivalent", cert.residuals
