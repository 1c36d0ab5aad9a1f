"""``covariant.relation_values``, the one evaluator of the relation clauses
X sigma(alpha^s(a)) = tau(a) X.

Every relation the package checks goes through it: the pair covariance and
the two defect commutators, the chain's covariance and restriction, the
dilation records' covariance and the three ``representation_intertwined``.
Here, on the finite corpus seeded and not, several relations without a
bound share one basis sweep, each distinct (rep, s) image is evaluated
once per chunk, the frame kernels evaluate no Kraus image, and the values
of a shared call are those of each relation alone.  On the finite corpus
and the tower-wide pair, a relation pushed above its threshold (X
perturbed) equals the dense-image sweep of ``dense_oracle.relation_value``
at round-off, and a passing value, bounded or not, is at least it.
"""

from dataclasses import dataclass, field

import numpy as np
import pytest

import covdilate.covariant as covariant_mod
from covdilate.algebra import ChunkRep
from covdilate.covariant import ShiftedRep, defect_roots, relation_values, usable_depth
from covdilate.cpmaps import KrausRep
from covdilate.extension import coisometric_extend
from covdilate.numerics import DEFAULT_TOL, BlockOperator, UpperBound
from covdilate.scenario import build_scenario

from dense_oracle import relation_value
from test_intertwiner_bound import TOWER_WIDE, _noisy, _perturb

EPS = np.finfo(float).eps
TOL = DEFAULT_TOL.residual_tol


@dataclass(eq=False)
class CountingRep(ChunkRep):
    """A representation that records the rows of every images call."""

    inner: object
    calls: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.inner.dim

    @property
    def max_depth(self):
        return self.inner.max_depth

    def images(self, coords, depth):
        self.calls.append(len(coords))
        return self.inner.images(coords, depth)


def _relations(pair, chain, pi):
    """name -> relation (X, tau, sigma, s) of a pair and its chain: the pair
    covariance and the two defect commutators on ``pi``, the chain
    covariance (a block X meeting a direct sum of Kraus levels) and the
    first level's rho on the dense identity (a Kraus frame kernel)."""
    system = pair.system
    delta, delta_star = defect_roots(pair)
    shifted = ShiftedRep(pi, system, 1)
    ext = chain.levels[0].ext
    return {"covariance": (pair.contraction, pi, pi, 1),
            "defect-star-commutes": (delta_star, pi, pi, 0),
            "defect-commutes": (delta, shifted, shifted, 0),
            "chain/covariance": (chain.v, chain.rho, chain.rho, 1),
            "level-0 commutes": (np.eye(ext.dilation_dim, dtype=complex), ext.rho, ext.rho, 0)}


@pytest.fixture(scope="module")
def finite_chains(corpus):
    """(name, pair, chain) over the finite corpus, seeded and not."""
    return [(f"{case.name}-seed{seed}", case.pair,
             coisometric_extend(case.pair, case.levels, case.strategy, DEFAULT_TOL, seed))
            for case in corpus if case.backend == "finite-dim" for seed in (None, 7)]


def test_relations_without_a_bound_share_one_sweep_and_their_images(finite_chains,
                                                                     monkeypatch):
    real = covariant_mod.basis_sweep
    sweeps, chunks, kraus_images = [], [], []

    def sweep(rows, images, *clauses, **kwargs):
        sweeps.append(len(clauses))

        def counted(c):
            chunks.append(len(c))
            return images(c)
        return real(rows, counted, *clauses, **kwargs)

    def no_kraus_images(self, coords, depth):
        kraus_images.append(len(coords))
        return real_kraus_images(self, coords, depth)

    real_kraus_images = KrausRep.images
    monkeypatch.setattr(covariant_mod, "basis_sweep", sweep)
    monkeypatch.setattr(KrausRep, "images", no_kraus_images)
    seen = 0
    for name, pair, chain in finite_chains:
        pi = CountingRep(pair.rep)
        relations = _relations(pair, chain, pi)
        d = usable_depth(pair.system, [pair.rep, chain.rho], 1, pair.depth)
        alone = {k: relation_values(pair.system, d, TOL, rel)[0] for k, rel in relations.items()}
        for log in (sweeps, chunks, pi.calls, kraus_images):
            log.clear()
        shared = relation_values(pair.system, d, TOL, *relations.values())
        # nothing has a factor form on the finite backend: all in one sweep
        assert sweeps == [len(relations)], (name, sweeps)
        assert sum(chunks) == pair.system.basis_size(d), name
        # pi at s = 0 and 1, and its shift at s = 0: three images per chunk
        # for the three pair relations, where each relation alone takes two
        assert pi.calls == [m for m in chunks for _ in range(3)], (name, pi.calls, chunks)
        assert kraus_images == [], name
        assert dict(zip(relations, shared)) == alone, name
        seen += 1
    assert seen >= 60


def _checked(name, got, oracle, threshold, side):
    where = (name, got, oracle)
    if oracle > threshold:
        assert not isinstance(got, UpperBound), where
        assert abs(got - oracle) <= 4 * side * EPS * (1.0 + oracle), where
    else:
        assert got <= threshold and got >= oracle - side * EPS, where


def _against_oracle(name, pair, chain, rng):
    """Each relation of the pair and its chain as shipped and perturbed
    against the dense oracle; the number of values above the threshold (a
    scalar algebra commutes with any X)."""
    system = pair.system
    d = usable_depth(system, [pair.rep, chain.rho], 1, pair.depth)
    above = 0
    for clause, (x, tau, sigma, s) in _relations(pair, chain, pair.rep).items():
        for drift in (0.0, 1e-3):
            perturbed = _perturb if isinstance(x, BlockOperator) else _noisy
            xd = perturbed(x, drift, rng) if drift else x
            (got,) = relation_values(system, d, TOL, (xd, tau, sigma, s))
            oracle = relation_value(system, d, xd, tau, sigma, s)
            _checked((name, clause, drift), got, oracle, TOL, max(xd.shape))
            above += oracle > TOL
    return above


def test_pushed_relations_equal_the_dense_oracle_and_passing_ones_cover_it(finite_chains):
    rng = np.random.default_rng(41)
    above = sum(_against_oracle(name, pair, chain, rng) for name, pair, chain in finite_chains)
    # 320 of the 420 perturbed relations; the rest are on scalar algebras
    assert above >= 300


def test_tower_wide_relations_against_the_dense_oracle():
    """On the tower every relation of the pair and its chain passes by its
    projection bound, at least the oracle; perturbed, each is swept and
    equals it."""
    s = build_scenario(TOWER_WIDE)
    chain = coisometric_extend(s.pair, s.levels, s.strategy, s.tol, s.seed)
    d = usable_depth(s.system, [s.pair.rep, chain.rho], 1, s.pair.depth)
    for clause, (x, tau, sigma, shifts) in _relations(s.pair, chain, s.pair.rep).items():
        (got,) = relation_values(s.system, d, TOL, (x, tau, sigma, shifts))
        assert isinstance(got, UpperBound), (clause, got)
        assert got >= relation_value(s.system, d, x, tau, sigma, shifts) - max(x.shape) * EPS
    assert _against_oracle("tower-wide", s.pair, chain, np.random.default_rng(43)) == 5
