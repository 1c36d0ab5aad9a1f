"""Scenario loading, validation gates and built-in demo fixtures.

A scenario is a JSON document (schema 1) describing one system: the
backend, the algebra and dynamics, the representation, the contraction,
the extension strategy, truncation parameters and tolerances.  Complex
scalars are ``[re, im]`` pairs, matrices are row-major nested arrays, and
every dimension is explicit.  Loading runs the named validation gates in
order; nothing is constructed from a scenario that has not passed all of
them.

The gates compute these certificates, each held by the object it certifies
(:func:`~covdilate.numerics.certified`): on the finite backend alpha's
``verify_endomorphism`` and ``verify_star_hom`` and pi's ``verify`` (held by
the ``StarHom`` s), and on both backends the pair's ``verify_covariance``
and the strategy's ``verify_strategy`` (keyed also by the system and the
depth).  Every command run on the loaded scenario reuses them; the arrays
they cover are read-only, so an in-place write raises.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import FiniteDimCStarAlgebra, Representation, StarHom
from .covariant import (AdaptedStrategy, CovariantPair, FiniteDimSystem,
                        GnsStrategy, verify_covariance, verify_strategy)
from .cpmaps import CPMap
from .errors import (NotInjective, ScenarioParseError, ScenarioValidationError,
                     SizeCap, StrategyInvalid, WorkbenchError)
from .numerics import DEFAULT_TOL, Tolerance, UpperBound, spectral_norm
from .tower import (ShiftTower, TowerExpectation, TowerTransfer, shift_down_pair,
                    state_density)

SCHEMA_VERSION = 1
COMMANDS = ("check", "extend", "dilate", "unitary", "matricial", "compare", "demo")


# ---------------------------------------------------------------------------
# complex-matrix JSON encoding
# ---------------------------------------------------------------------------

def parse_scalar(v) -> complex:
    """A finite number or [re, im] pair; booleans are not numbers here."""
    parts = v if isinstance(v, list) and len(v) == 2 else [v]
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
        try:
            z = complex(*parts)
        except OverflowError:   # an integer beyond the float range
            z = complex("nan")
        if cmath.isfinite(z):
            return z
    raise ScenarioParseError(f"expected a finite number or [re, im] pair, got {v!r}")


def parse_matrix(data) -> np.ndarray:
    if not isinstance(data, list) or not data or not isinstance(data[0], list):
        raise ScenarioParseError("matrix must be a non-empty nested array")
    rows = []
    width = None
    for row in data:
        entries = [parse_scalar(v) for v in row]
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise ScenarioParseError("ragged matrix rows")
        rows.append(entries)
    return np.array(rows, dtype=complex)


def parse_vector(data) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise ScenarioParseError("vector must be a non-empty array")
    return np.array([parse_scalar(v) for v in data], dtype=complex)


def parse_real(value, name: str) -> float:
    """A real field: a finite int or float.  Booleans, infinities, NaN and
    non-numbers fail gate ``schema``, as they do in :func:`parse_scalar`."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:   # an integer beyond the float range
            x = float("nan")
        if math.isfinite(x):
            return x
    raise ScenarioValidationError("schema", f"{name} must be a finite number, got {value!r}")


def parse_integer(value, name: str) -> int:
    """An integer field: an int, or a float with an integral value such as
    2.0.  Booleans, fractions and non-numbers fail gate ``schema``; nothing
    is truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ScenarioValidationError("schema", f"{name} must be an integer, got {value!r}")


# ---------------------------------------------------------------------------
# scenario objects
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Scenario:
    raw: dict
    backend: str
    system: object
    pair: CovariantPair
    strategy: object
    levels: int
    copies: int
    tol: Tolerance
    seed: Optional[int]

    def echo(self) -> dict:
        return self.raw


def load_scenario(path: str, tol_override: Optional[float] = None) -> Scenario:
    return build_scenario(read_scenario(path), tol_override)


def read_scenario(path: str):
    """The parsed JSON of a scenario file, not yet validated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def build_scenario(data, tol_override: Optional[float] = None) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioValidationError("schema", "scenario must be a JSON object")
    if data.get("schema") != SCHEMA_VERSION:
        raise ScenarioValidationError("schema", f"schema must be {SCHEMA_VERSION}")
    backend = data.get("backend")
    if backend not in ("finite-dim", "tower"):
        raise ScenarioValidationError("schema", f"unknown backend {backend!r}")

    tol = _parse_tolerances(data.get("tolerances"), tol_override)
    levels = parse_integer(data.get("levels", 1), "levels")
    copies = parse_integer(data.get("copies", 1), "copies")
    seed = data.get("seed")
    seed = parse_integer(seed, "seed") if seed is not None else None
    if levels < 1 or copies < 1:
        raise ScenarioValidationError("schema", "levels and copies must be >= 1")
    if seed is not None and seed < 0:
        # a basis seed seeds numpy's generator, which takes none below 0
        raise ScenarioValidationError("schema", f"seed must be >= 0, got {seed}")

    if backend == "finite-dim":
        system, pair, strategy = _build_finite(data, tol)
    else:
        system, pair, strategy = _build_tower(data, tol, levels, copies)

    nrm = spectral_norm(pair.contraction)
    if nrm > 1.0 + tol.rank_eps:
        raise ScenarioValidationError("contraction", f"||T|| = {nrm:.6f} exceeds 1")
    cov = verify_covariance(pair, tol)
    if cov > tol.residual_tol:
        raise ScenarioValidationError("covariance",
                                      f"covariance residual {cov:.3e} exceeds tolerance")
    try:
        verify_strategy(system, strategy, system.stinespring_depth(pair.depth), tol)
    except StrategyInvalid as exc:
        raise ScenarioValidationError("strategy", str(exc)) from exc
    return Scenario(data, backend, system, pair, strategy, levels, copies, tol, seed)


def _parse_tolerances(data, tol_override) -> Tolerance:
    base = DEFAULT_TOL
    if data is not None and not isinstance(data, dict):
        raise ScenarioValidationError("schema", "tolerances must be an object")
    data = data or {}
    residual_tol = tol_override if tol_override is not None \
        else data.get("residual_tol", base.residual_tol)
    try:
        return Tolerance(
            rank_eps=parse_real(data.get("rank_eps", base.rank_eps), "rank_eps"),
            residual_tol=parse_real(residual_tol, "residual_tol"),
            psd_floor=parse_real(data.get("psd_floor", base.psd_floor), "psd_floor"))
    except ValueError as exc:
        raise ScenarioValidationError("schema", str(exc)) from exc


def _build_finite(data, tol):
    blocks = data.get("blocks")
    if not isinstance(blocks, list) or not blocks:
        raise ScenarioValidationError("schema", "finite-dim scenarios need 'blocks'")
    try:
        algebra = FiniteDimCStarAlgebra(tuple(parse_integer(b, "blocks") for b in blocks))
    except (TypeError, ValueError) as exc:
        raise ScenarioValidationError("schema", f"bad 'blocks' {blocks!r}: {exc}") from exc

    alpha = _parse_alpha(data.get("alpha", "identity"), algebra)
    from .algebra import verify_endomorphism
    endo = verify_endomorphism(alpha, tol)
    if not endo.passed:
        mult = endo.hom.mult_residual
        # a passing mult residual may be its norm bound; the message says so
        at_most = "<= " if isinstance(mult, UpperBound) else ""
        raise ScenarioValidationError(
            "star-hom", "alpha is not a unital injective *-endomorphism "
            f"(mult {at_most}{mult:.3e}, injective {endo.injective})")

    pi_spec = data.get("pi")
    if not isinstance(pi_spec, dict):
        raise ScenarioValidationError("schema", "finite-dim scenarios need 'pi'")
    pi = _parse_pi(pi_spec, algebra)
    rep_check = pi.verify(tol)
    if not rep_check.passed:
        raise ScenarioValidationError("representation",
                                      "pi is not a unital *-representation")

    t_data = data.get("T")
    if t_data is None:
        raise ScenarioValidationError("schema", "finite-dim scenarios need 'T'")
    t = parse_matrix(t_data)
    if t.shape != (pi.space_dim, pi.space_dim):
        raise ScenarioValidationError("schema",
                                      f"T must be {pi.space_dim} x {pi.space_dim}")

    system = FiniteDimSystem(algebra, alpha)
    pair = CovariantPair(system, pi, t)
    strategy = _parse_finite_strategy(data.get("strategy", {"kind": "adapted",
                                                            "tau": "alpha-inverse"}),
                                      algebra, alpha)
    return system, pair, strategy


def _parse_alpha(spec, algebra) -> StarHom:
    if spec == "identity":
        return StarHom.identity(algebra)
    if not isinstance(spec, dict):
        raise ScenarioValidationError("schema", f"bad alpha spec {spec!r}")
    kind = spec.get("kind")
    if kind == "permutation":
        return StarHom.block_permutation(algebra, spec.get("perm", []))
    if kind == "inner":
        mats = spec.get("unitary_blocks")
        if not isinstance(mats, list) or len(mats) != len(algebra.block_sizes):
            raise ScenarioValidationError("schema", "inner alpha needs one unitary per block")
        u = algebra.element([parse_matrix(m) for m in mats])
        return StarHom.inner_automorphism(u)
    if kind == "coords":
        return StarHom(algebra, algebra, parse_matrix(spec.get("matrix")))
    raise ScenarioValidationError("schema", f"unknown alpha kind {kind!r}")


def _parse_pi(spec, algebra) -> Representation:
    if "multiplicities" in spec:
        unitary = spec.get("unitary")
        return Representation.from_multiplicities(
            algebra, [parse_integer(m, "multiplicities") for m in spec["multiplicities"]],
            parse_matrix(unitary) if unitary is not None else None)
    if "images" in spec:
        images = [parse_matrix(m) for m in spec["images"]]
        if len(images) != algebra.dim:
            raise ScenarioValidationError("schema",
                                          "need one image per basis element")
        return Representation.from_images(algebra, images)
    raise ScenarioValidationError("schema", "pi needs 'multiplicities' or 'images'")


def _parse_finite_strategy(spec, algebra, alpha):
    if not isinstance(spec, dict):
        raise ScenarioValidationError("schema", f"bad strategy spec {spec!r}")
    kind = spec.get("kind", "adapted")
    if kind == "adapted":
        tau_spec = spec.get("tau", "alpha-inverse")
        if tau_spec == "alpha-inverse":
            try:
                tau = CPMap.from_hom(alpha.inverse())
            except NotInjective as exc:
                raise ScenarioValidationError("strategy", str(exc)) from exc
        elif isinstance(tau_spec, dict) and "coords" in tau_spec:
            tau = CPMap(algebra, algebra, parse_matrix(tau_spec["coords"]))
        else:
            raise ScenarioValidationError("schema", f"bad tau spec {tau_spec!r}")
        return AdaptedStrategy(tau)
    if kind == "gns":
        e_spec = spec.get("expectation", "identity")
        if e_spec == "identity":
            e = CPMap.identity(algebra)
        elif isinstance(e_spec, dict) and "coords" in e_spec:
            e = CPMap(algebra, algebra, parse_matrix(e_spec["coords"]))
        else:
            raise ScenarioValidationError("schema", f"bad expectation spec {e_spec!r}")
        return GnsStrategy(e)
    raise ScenarioValidationError("schema", f"unknown strategy kind {kind!r}")


def _build_tower(data, tol, levels, copies):
    k = parse_integer(data.get("k", 2), "k")
    d_max = parse_integer(data.get("d_max"), "d_max")
    rep_depth = parse_integer(data.get("rep_depth"), "rep_depth")
    mult = parse_integer(data.get("multiplicity", 1), "multiplicity")
    if mult < 1:
        raise ScenarioValidationError("schema", "multiplicity must be >= 1")
    cap = parse_integer(data.get("size_cap", 256), "size_cap")
    try:
        tower = ShiftTower(k, d_max, cap)
    except SizeCap as exc:
        raise ScenarioValidationError("size cap", str(exc)) from exc
    except WorkbenchError as exc:   # k < 2 or d_max < 1
        raise ScenarioValidationError("schema", str(exc)) from exc

    depth = rep_depth - 1
    if depth + 1 > d_max:
        raise ScenarioValidationError("depth budget",
                                      f"rep_depth {rep_depth} exceeds d_max {d_max}")
    if depth + levels + 1 > d_max:
        raise ScenarioValidationError(
            "depth budget", f"check depth {depth} + levels {levels} + 1 exceeds "
                            f"d_max {d_max}")
    if depth + copies > d_max:
        raise ScenarioValidationError(
            "depth budget", f"check depth {depth} + copies {copies} exceeds d_max {d_max}")
    if copies > depth:
        # dilate, unitary and matricial all need check depth >= copies
        raise ScenarioValidationError(
            "depth budget", f"copies {copies} exceed check depth {depth}")

    pair_spec = data.get("pair")
    if not isinstance(pair_spec, dict):
        raise ScenarioValidationError("schema", "tower scenarios need 'pair'")
    scale = parse_real(pair_spec.get("scale", 1.0), "the pair's scale")
    u = _local_vector(pair_spec.get("u", [1] + [0] * (k - 1)), k, "u")
    v = _local_vector(pair_spec.get("v", [1] + [0] * (k - 1)), k, "v")
    try:
        pair = shift_down_pair(tower, rep_depth, mult, scale, u, v, tol)
    except SizeCap as exc:
        raise ScenarioValidationError("size cap", str(exc)) from exc
    except WorkbenchError as exc:
        raise ScenarioValidationError("contraction", str(exc)) from exc

    strat_spec = data.get("strategy", {"kind": "adapted", "phi": "trace"})
    if not isinstance(strat_spec, dict):
        raise ScenarioValidationError("schema", f"bad strategy spec {strat_spec!r}")
    phi = strat_spec.get("phi", "trace")
    if isinstance(phi, dict):
        if "vector" in phi:
            phi = _local_vector(phi["vector"], k, "phi vector")
        elif "density" in phi:
            phi = parse_matrix(phi["density"])
        else:
            raise ScenarioValidationError("schema", f"bad phi spec {phi!r}")
    try:
        density = state_density(tower, phi)
    except WorkbenchError as exc:
        raise ScenarioValidationError("strategy", str(exc)) from exc
    kind = strat_spec.get("kind", "adapted")
    if kind == "adapted":
        strategy = AdaptedStrategy(TowerTransfer(tower, density))
    elif kind == "gns":
        strategy = GnsStrategy(TowerExpectation(tower, density))
    else:
        raise ScenarioValidationError("schema", f"unknown strategy kind {kind!r}")
    # the pair's own system: the strategy's certificate is keyed by it
    return pair.system, pair, strategy


def _local_vector(data, k: int, name: str) -> np.ndarray:
    """A nonzero vector of C^k (normalized where it is used)."""
    vec = parse_vector(data)
    if vec.size != k or not vec.any():
        raise ScenarioValidationError("schema", f"{name} must be a nonzero vector in C^{k}")
    return vec


# ---------------------------------------------------------------------------
# built-in fixtures
# ---------------------------------------------------------------------------

def demo_fixture(name: str) -> dict:
    """The built-in scalar, automorphism and tower demonstration scenarios."""
    if name == "scalar":
        return {
            "schema": 1,
            "backend": "finite-dim",
            "blocks": [1],
            "alpha": "identity",
            "pi": {"multiplicities": [1]},
            "T": [[[0.6, 0.0]]],
            "strategy": {"kind": "adapted", "tau": "alpha-inverse"},
            "levels": 3,
            "copies": 3,
            "seed": 0,
        }
    if name == "automorphism":
        # two equal blocks swapped by the dynamics; the intertwining T is
        # off-diagonal with scalar coefficients 0.7 and 0.5
        t = [
            [[0, 0], [0, 0], [0.7, 0], [0, 0]],
            [[0, 0], [0, 0], [0, 0], [0.7, 0]],
            [[0.5, 0], [0, 0], [0, 0], [0, 0]],
            [[0, 0], [0.5, 0], [0, 0], [0, 0]],
        ]
        return {
            "schema": 1,
            "backend": "finite-dim",
            "blocks": [2, 2],
            "alpha": {"kind": "permutation", "perm": [1, 0]},
            "pi": {"multiplicities": [1, 1]},
            "T": t,
            "strategy": {"kind": "adapted", "tau": "alpha-inverse"},
            "levels": 2,
            "copies": 2,
            "seed": 0,
        }
    if name == "tower":
        return {
            "schema": 1,
            "backend": "tower",
            "k": 2,
            "d_max": 5,
            "rep_depth": 2,
            "multiplicity": 1,
            "pair": {"scale": 0.9, "u": [[1, 0], [0, 0]], "v": [[1, 0], [0, 0]]},
            "strategy": {"kind": "adapted", "phi": "trace"},
            "levels": 2,
            "copies": 1,
            "seed": 0,
        }
    raise ScenarioValidationError("schema", f"unknown demo fixture {name!r}")


DEMO_NAMES = ("scalar", "automorphism", "tower")
