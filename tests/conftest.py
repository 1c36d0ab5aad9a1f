"""Shared fixtures: randomized scenario corpus spanning both backends.

Every random object is drawn from a seeded generator so the whole suite is
reproducible; contractions are produced by solving the intertwiner equation
for the pair's dynamics, never by projection tricks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pytest

from covdilate.algebra import FiniteDimCStarAlgebra, Representation, StarHom
from covdilate.covariant import (AdaptedStrategy, CovariantPair, FiniteDimSystem,
                                 haar_unitary)
from covdilate.cpmaps import CPMap, KrausRep
from covdilate.extension import ExtensionChain, coisometric_extend
from covdilate.numerics import DEFAULT_TOL, spectral_norm
from covdilate.tower import (ShiftTower, TowerTransfer, shift_down_pair,
                             state_density)

from dense_oracle import RotatedRep


def random_element(algebra, rng):
    """An element of the algebra with standard complex Gaussian entries."""
    return algebra.element([rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                            for n in algebra.block_sizes])


def rotated_step(ext, rng):
    """The extension step in the basis Q K of its dilation space, Q a Haar
    draw of the dilation dimension: rho becomes the
    :class:`dense_oracle.RotatedRep` Q rho Q* and W becomes Q W."""
    q = haar_unitary(ext.dilation_dim, rng)
    return replace(ext, rho=RotatedRep(ext.rho, q), isometry=q @ ext.isometry)


def random_covariant_contraction(system, rep, rng, norm: float) -> np.ndarray:
    """Random solution of T pi(alpha(a)) = pi(a) T with ||T|| = norm.

    Solved as the null space of the stacked coordinate equations in the
    column-major vectorization vec(AXB) = (B^T kron A) vec(X).
    """
    h = rep.dim
    rows = []
    for a in system.basis(None):
        m = rep(system.alpha_apply(a))
        n = rep(a)
        rows.append(np.kron(m.T, np.eye(h)) - np.kron(np.eye(h), n))
    stack = np.vstack(rows)
    _, s, vh = np.linalg.svd(stack)
    # the stack is built from unit-scale operators, so reference the cutoff to 1
    null_dim = int(np.sum(s <= 1e-10 * max(float(s[0]), 1.0))) + (h * h - len(s))
    if null_dim == 0:
        raise ValueError("no nonzero intertwiner for this pair of representations")
    basis = vh.conj().T[:, -null_dim:]
    coeff = rng.standard_normal(null_dim) + 1j * rng.standard_normal(null_dim)
    t = (basis @ coeff).reshape(h, h, order="F")
    return t * (norm / spectral_norm(t))


@dataclass
class Case:
    name: str
    backend: str
    pair: CovariantPair
    strategy: AdaptedStrategy
    levels: int
    copies: int
    unitary_contraction: bool = False


def held_kraus_form(ext):
    """The transfer's Kraus form that an adapted step was composed from, as
    the transfer holds it; None for a step not composed (on the Choi route,
    or a GNS step)."""
    if ext.strategy_kind != "adapted" or not isinstance(ext.base_rep, KrausRep):
        return None
    key = ("kraus", ext.system, ext.working_depth, ext.base_rep.depth, ext.tol)
    return vars(ext.transfer)["_certificates"][key]


def make_finite_case(rng, idx: int, unitary_t: bool = False) -> Case:
    blocks, mults = [
        ((1,), (1,)), ((1,), (3,)), ((2,), (1,)), ((2,), (2,)),
        ((1, 1), (1, 1)), ((1, 1), (2, 1)), ((2, 1), (1, 1)), ((2, 1), (1, 2)),
        ((3,), (1,)), ((2, 2), (1, 1)),
    ][idx % 10]
    algebra = FiniteDimCStarAlgebra(blocks)
    kind = idx % 3
    if unitary_t or kind == 0:
        u = algebra.element([haar_unitary(n, rng) for n in blocks])
        alpha = StarHom.inner_automorphism(u)
    elif kind == 1:
        alpha = StarHom.identity(algebra)
    else:
        # permute equal blocks when possible, else inner
        sizes = list(blocks)
        perm = None
        for i in range(len(sizes)):
            for j in range(i + 1, len(sizes)):
                if sizes[i] == sizes[j] and mults[i] == mults[j]:
                    perm = list(range(len(sizes)))
                    perm[i], perm[j] = perm[j], perm[i]
        if perm is None:
            alpha = StarHom.identity(algebra)
        else:
            alpha = StarHom.block_permutation(algebra, perm)
    d = sum(n * m for n, m in zip(blocks, mults))
    pi = Representation.from_multiplicities(algebra, mults, haar_unitary(d, rng))
    system = FiniteDimSystem(algebra, alpha)
    if unitary_t:
        t = pi(u).conj().T  # pi(u)* intertwines pi(alpha(a)) with pi(a), unitary
    else:
        norm = float(rng.uniform(0.3, 0.98))
        t = random_covariant_contraction(system, pi, rng, norm)
    pair = CovariantPair(system, pi, t)
    tau = CPMap.from_hom(alpha.inverse())
    n_levels = 1 + idx % 3
    copies = 1 + (idx // 2) % 3
    return Case(f"finite-{idx}", "finite-dim", pair, AdaptedStrategy(tau),
                n_levels, copies, unitary_t)


def make_tower_case(rng, idx: int, rep_depth: int = 2, n_levels: int = 1,
                    phi="trace", mult: int = 1, k: int = 2) -> Case:
    depth = rep_depth - 1
    d_max = depth + n_levels + 1
    tower = ShiftTower(k, max(d_max, depth + 1 + 1), 256)
    u = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    scale = float(rng.uniform(0.4, 1.0))
    pair = shift_down_pair(tower, rep_depth, mult, scale, u, v)
    tau = TowerTransfer(tower, state_density(tower, phi))
    return Case(f"tower-{idx}", "tower", pair, AdaptedStrategy(tau), n_levels, 1)


@pytest.fixture(scope="session")
def corpus() -> list[Case]:
    rng = np.random.default_rng(20260810)
    cases = [make_finite_case(rng, i) for i in range(38)]
    cases += [make_finite_case(rng, 40 + i, unitary_t=True) for i in range(4)]
    for i in range(8):
        phi = ["trace", [1, 0], None][i % 3]
        if phi is None:
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = z @ z.conj().T
            phi = rho / np.trace(rho).real
        cases.append(make_tower_case(rng, i, rep_depth=2, n_levels=1 + i % 2, phi=phi))
    cases.append(make_tower_case(rng, 8, rep_depth=2, n_levels=3))
    cases.append(make_tower_case(rng, 9, rep_depth=2, n_levels=2, mult=2))
    cases.append(make_tower_case(rng, 10, rep_depth=3, n_levels=1))
    cases.append(make_tower_case(rng, 11, rep_depth=3, n_levels=1, phi=[1, 0]))
    return cases


@pytest.fixture(scope="session")
def built_chains(corpus) -> dict[str, ExtensionChain]:
    return {case.name: coisometric_extend(case.pair, case.levels, case.strategy,
                                          DEFAULT_TOL)
            for case in corpus}
