"""The tower transfer's Kraus form in closed form, against the Choi route.

``TowerSystem.transfer_kraus`` reads the Kraus form of tau_phi off the k x k
density rho (the ``tower`` module docstring: the Choi block is rho^T (x) n
Omega Omega* (x) I_M); ``cpmaps.transfer_kraus`` eigendecomposes the Choi
blocks and is the oracle here.  The kept values and their multiplicities,
the kept Kraus data and the gate numbers agree; the composed chains are
certified equivalent to ``dense_oracle.choi_route_chain``; a density that
is not Hermitian or not PSD raises NotCP exactly where the Choi route does;
and passing adapted tower runs form no Choi matrix of the transfer.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import covdilate.covariant as covariant
import covdilate.cpmaps as cpmaps
from covdilate.cli import run
from covdilate.covariant import covariant_pair
from covdilate.cpmaps import KrausDilation, KrausRep, choi_cut, transfer_kraus
from covdilate.equivalence import chain_intertwiner
from covdilate.errors import NotCP
from covdilate.extension import coisometric_extend
from covdilate.numerics import DEFAULT_TOL
from covdilate.scenario import build_scenario, demo_fixture
from covdilate.tower import ShiftTower, TowerSystem, TowerTransfer, state_density

import dense_oracle
from conftest import held_kraus_form, make_tower_case

FIXTURES = Path(__file__).parent / "fixtures"
PHIS = ("trace", "vector", "mixed")

# (k, depth, at): tau_phi from the stage ``depth`` into the stage ``at``.
# depth is the working stage, rep_depth 2 to 4 on k = 2; at = depth + 1 is
# a rep deeper than the working stage (level 0's key).  The Choi route's
# side is k^(depth + at): k = 3 stops at rep_depth 3, side 729, since
# rep_depth 4 would be side 6561.
STAGES = [(2, 1, 1), (2, 2, 2), (2, 2, 3), (2, 3, 3), (2, 3, 4), (2, 4, 4), (2, 4, 5),
          (3, 1, 1), (3, 2, 2), (3, 2, 3), (3, 3, 3)]


def phi_spec(k: int, phi: str, rng):
    """The state name, a random unit vector or a random density of M_k."""
    if phi == "trace":
        return "trace"
    z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    if phi == "vector":
        return z
    m = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def both_forms(k, depth, at, density):
    tower = ShiftTower(k, at, k ** at)
    system = TowerSystem(tower)
    tau = TowerTransfer(tower, density)
    return system, system.transfer_kraus(tau, depth, at), transfer_kraus(system, tau, depth, at)


def kept(form, cut):
    vals, rows = form.kraus[0][0]
    m = np.count_nonzero(vals > cut)
    return vals[:m], rows[:, :m]


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("k, depth, at", STAGES)
def test_closed_form_is_the_choi_route(k, depth, at, phi):
    rng = np.random.default_rng([k, depth, at, PHIS.index(phi)])
    density = state_density(ShiftTower(k, 1), phi_spec(k, phi, rng))
    system, closed, choi = both_forms(k, depth, at, density)
    assert closed.source.block_sizes == choi.source.block_sizes
    assert closed.target_sizes == choi.target_sizes
    top = choi.edges[0][1]
    assert np.abs(np.subtract(closed.edges, choi.edges)).max() <= 1e-12 * top
    assert abs(closed.hermiticity[0][0] - choi.hermiticity[0][0]) <= 1e-12

    cut = choi_cut(choi.edges[0], DEFAULT_TOL)
    assert cut == pytest.approx(choi_cut(closed.edges[0], DEFAULT_TOL), rel=1e-12)
    vals_closed, rows_closed = kept(closed, cut)
    vals_choi, rows_choi = kept(choi, cut)
    # n lambda_l, each M times, for the rank of rho
    n, m = k ** (depth - 1), k ** (at - depth + 1)
    rank = 1 if phi == "vector" else k
    assert vals_closed.size == vals_choi.size == rank * m
    assert np.abs(vals_closed - vals_choi).max() <= 1e-12 * top
    lam = np.linalg.eigvalsh(density)[::-1][:rank]
    np.testing.assert_allclose(vals_closed, np.repeat(n * lam, m), rtol=0, atol=1e-12 * top)
    # the kept Kraus rows agree up to a unitary of their columns: frames
    # Y_s = rows[:, s, :] with equal Y* Y (the kept part of the Choi matrix)
    frames = [rows.transpose(1, 0, 2).reshape(rows.shape[1], -1)
              for rows in (rows_closed, rows_choi)]
    grams = [y.conj().T @ y for y in frames]
    assert np.abs(grams[0] - grams[1]).max() <= 1e-12 * top

    # composed on a KrausRep of multiplicity 2 at the stage ``at``
    rep = KrausRep(system, at, KrausDilation((2,), np.zeros((2 * k ** at, 1), dtype=complex)))
    assert closed.compose(rep).multiplicities == choi.compose(rep).multiplicities


def chain_cases():
    rng = np.random.default_rng(29)
    cases = []
    for k, rep_depth, levels in ((2, 2, 2), (2, 3, 2), (2, 4, 1), (3, 2, 1)):
        for phi in PHIS:
            case = make_tower_case(rng, 0, rep_depth=rep_depth, n_levels=levels,
                                   phi=phi_spec(k, phi, rng), k=k)
            cases.append((f"k{k}-rep{rep_depth}-{phi}", case.pair, case.strategy, levels))
    # pi at depth 3 re-paired at check depth 1: level 0's form targets pi's
    # stage, one deeper than the working stage
    deep = make_tower_case(rng, 0, rep_depth=3, n_levels=2, phi=phi_spec(2, "mixed", rng))
    cases.append(("k2-rep3-deeper-mixed", covariant_pair(deep.pair.system, deep.pair.rep,
                                                         deep.pair.contraction, depth=1),
                  deep.strategy, 3))
    return cases


def test_closed_form_chains_are_the_choi_route_chains():
    for name, pair, strategy, levels in chain_cases():
        chain = coisometric_extend(pair, levels, strategy, DEFAULT_TOL, 4)
        oracle = dense_oracle.choi_route_chain(pair, levels, strategy, DEFAULT_TOL, 4)
        assert None not in [held_kraus_form(lv.ext) for lv in chain.levels], name
        assert chain.block_dims == oracle.block_dims, name
        assert [lv.ext.rho.dilation.multiplicities for lv in chain.levels] == \
            [lv.ext.rho.dilation.multiplicities for lv in oracle.levels], name
        cert = chain_intertwiner(chain, oracle)
        assert cert.verdict == "equivalent", (name, cert.residuals)


def _not_a_state(k: int, kind: str, target: float, n: int, rng) -> np.ndarray:
    """A random density moved off the states: by an anti-Hermitian part
    whose Choi hermiticity residual n ||rho - rho*|| / (1 + n ||rho||) is
    about ``target``, or shifted so that its lowest eigenvalue is
    -``target``."""
    m = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    if kind == "negative":
        return rho - (np.linalg.eigvalsh(rho)[0] + target) * np.eye(k)
    x = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    x = x - x.conj().T
    scale = target * (1.0 + n * np.linalg.norm(rho, 2)) / (n * np.linalg.norm(x, 2))
    return rho + scale * x / 2.0


@pytest.mark.parametrize("kind, target, fails", [
    # the hermiticity gate: decided by the Frobenius bound far below the
    # threshold, by the exact residual between (the bound is above), and
    # failing above it
    ("skew", 1e-13, False), ("skew", 0.5e-8, False), ("skew", 2e-8, True), ("skew", 1e-6, True),
    # the positivity gate, at -psd_floor (1 + top)
    ("negative", 1e-13, False), ("negative", 1e-3, True),
])
@pytest.mark.parametrize("k, depth, at", [(2, 2, 2), (2, 3, 4), (3, 2, 2)])
def test_a_density_off_the_states_fails_where_the_choi_route_fails(k, depth, at, kind,
                                                                   target, fails):
    rng = np.random.default_rng([k, depth, at, int(-np.log10(target))])
    n = k ** (depth - 1)
    system, closed, choi = both_forms(k, depth, at, _not_a_state(k, kind, target, n, rng))
    assert abs(closed.hermiticity[0][0] - choi.hermiticity[0][0]) \
        <= 1e-9 * choi.hermiticity[0][0] + 1e-15
    top = choi.edges[0][1]
    assert np.abs(np.subtract(closed.edges, choi.edges)).max() <= 1e-12 * top
    if kind == "skew" and target == 0.5e-8:
        # the bound is above the threshold, so both values are exact
        assert type(closed.hermiticity[0][0]) is type(choi.hermiticity[0][0]) is float
    rep = KrausRep(system, at, KrausDilation((1,), np.zeros((k ** at, 1), dtype=complex)))
    raised = []
    for form in (closed, choi):
        try:
            form.compose(rep)
            raised.append(None)
        except NotCP:
            raised.append(NotCP)
    assert raised == [NotCP if fails else None] * 2


def _adapted_tower_scenarios():
    wide = dict(demo_fixture("tower"), k=3, d_max=4, levels=1,
                pair={"scale": 0.8, "u": [[0.6, 0], [0, 0.8], [0, 0]],
                      "v": [[0, 0], [0.8, 0], [0.6, 0]]})
    mixed = dict(demo_fixture("tower"),
                 strategy={"kind": "adapted",
                           "phi": {"density": [[[0.7, 0], [0.1, 0.2]], [[0.1, -0.2], [0.3, 0]]]}})
    stage4 = json.loads((FIXTURES / "tower-stage4.json").read_text())
    return [demo_fixture("tower"), wide, mixed, stage4]


def test_adapted_tower_runs_form_no_choi_matrix_of_the_transfer(monkeypatch):
    scenarios = [build_scenario(data) for data in _adapted_tower_scenarios()]
    calls = []

    def refuse(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called on an adapted tower run")
        return record

    for module in (cpmaps, covariant):
        monkeypatch.setattr(module, "unit_image_chois", refuse("unit_image_chois"))
    monkeypatch.setattr(cpmaps, "choi_spectra", refuse("choi_spectra"))
    for scenario in scenarios:
        for command in ("extend", "unitary", "matricial"):
            assert run(scenario, command)["passed"], command
    assert calls == []
