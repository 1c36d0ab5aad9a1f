"""Seeded workload generator: schema-1 scenario dicts and the op lists run on them.

Everything here is plain numpy and never imports the package under test, so
the inputs of a workload depend on the seed alone and stay the same across
commits. Each workload fixes its structure (backend, block shapes, dynamics
kind, strategy, levels, copies, command list) by position; the seed draws
only the numbers inside it (vectors, unitaries, contractions, basis seeds).
With generic random numbers every rank the program decides is generic, so
the dimensions, clause names and verdicts of every op do not depend on the
seed, and one stored reference per workload checks all seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

WORKLOADS = ("tower-deep", "tower-wide", "small-sweep")
PIPELINE = ("check", "extend", "dilate", "unitary", "matricial")


@dataclass(frozen=True)
class Op:
    """One report: ``command`` run on ``scenario`` (and ``other`` for compare).

    ``repeat`` is how many times a pass times the op; its latency is the
    median of those repetitions.
    """

    id: str
    command: str
    scenario: str
    other: Optional[str] = None
    repeat: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    scenarios: dict          # name -> schema-1 scenario dict
    ops: tuple               # Op, in run order; ops[0] is the cross-checked op


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    scenarios, ops = {"tower-deep": _tower_deep, "tower-wide": _tower_wide,
                      "small-sweep": _small_sweep}[name](rng)
    return Workload(name, seed, scenarios, tuple(ops))


# ---------------------------------------------------------------------------
# encoding helpers
# ---------------------------------------------------------------------------

def _enc_vector(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def _enc_matrix(m) -> list:
    return [_enc_vector(row) for row in np.asarray(m, dtype=complex)]


def _unit_vector(k: int, rng) -> np.ndarray:
    z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return z / np.linalg.norm(z)


def _haar(n: int, rng) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _basis_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# tower workloads
# ---------------------------------------------------------------------------

def _tower(rng, k, d_max, rep_depth, levels, copies, strategy) -> dict:
    return {
        "schema": 1,
        "backend": "tower",
        "k": k,
        "d_max": d_max,
        "rep_depth": rep_depth,
        "multiplicity": 1,
        "pair": {"scale": float(rng.uniform(0.4, 0.95)),
                 "u": _enc_vector(_unit_vector(k, rng)),
                 "v": _enc_vector(_unit_vector(k, rng))},
        "strategy": strategy,
        "levels": levels,
        "copies": copies,
        "seed": _basis_seed(rng),
    }


def _tower_deep(rng):
    # the ROADMAP scaling case: dim H = 8, level-1 Gram form of side 2048
    s = _tower(rng, 2, 6, 3, 2, 2, {"kind": "adapted", "phi": "trace"})
    return {"deep": s}, [Op("tower-deep/0", "extend", "deep")]


# Repetitions per pass of tower-wide's sub-2-second ops. They sit in the middle
# of the workload's latency distribution, so they decide report_p50_ms; timed
# once each, that median would rest on under 3 s of work.
_WIDE_SHORT_REPEAT = 6


def _tower_wide(rng):
    # 81-element basis at working depth; one pair, four strategies on it
    trace = _tower(rng, 3, 4, 2, 1, 1, {"kind": "adapted", "phi": "trace"})
    state_a = {"vector": _enc_vector(_unit_vector(3, rng))}
    state_b = {"vector": _enc_vector(_unit_vector(3, rng))}
    gns_a = dict(trace, strategy={"kind": "gns", "phi": state_a})
    gns_b = dict(trace, strategy={"kind": "gns", "phi": state_b})
    gns_a_reseeded = dict(gns_a, seed=_basis_seed(rng))
    scenarios = {"trace": trace, "gns-a": gns_a, "gns-b": gns_b,
                 "gns-a-reseeded": gns_a_reseeded}
    short = _WIDE_SHORT_REPEAT
    ops = [Op("tower-wide/trace/check", "check", "trace", repeat=short)]
    ops += [Op(f"tower-wide/trace/{c}", c, "trace") for c in ("extend", "unitary", "matricial")]
    ops += [Op(f"tower-wide/gns-a/{c}", c, "gns-a", repeat=short) for c in ("extend", "unitary")]
    ops += [Op("tower-wide/compare/distinct-states", "compare", "gns-a", "gns-b", repeat=short),
            Op("tower-wide/compare/reseeded", "compare", "gns-a", "gns-a-reseeded",
               repeat=short)]
    return scenarios, ops


# ---------------------------------------------------------------------------
# small-sweep: demo fixtures plus random finite-dimensional scenarios
# ---------------------------------------------------------------------------

# The built-in demo fixtures, frozen here so that the inputs stay fixed even
# if the package's own fixtures change.
_DEMOS = {
    "scalar": {
        "schema": 1, "backend": "finite-dim", "blocks": [1], "alpha": "identity",
        "pi": {"multiplicities": [1]}, "T": [[[0.6, 0.0]]],
        "strategy": {"kind": "adapted", "tau": "alpha-inverse"},
        "levels": 3, "copies": 3, "seed": 0,
    },
    "automorphism": {
        "schema": 1, "backend": "finite-dim", "blocks": [2, 2],
        "alpha": {"kind": "permutation", "perm": [1, 0]},
        "pi": {"multiplicities": [1, 1]},
        "T": [[[0, 0], [0, 0], [0.7, 0], [0, 0]],
              [[0, 0], [0, 0], [0, 0], [0.7, 0]],
              [[0.5, 0], [0, 0], [0, 0], [0, 0]],
              [[0, 0], [0.5, 0], [0, 0], [0, 0]]],
        "strategy": {"kind": "adapted", "tau": "alpha-inverse"},
        "levels": 2, "copies": 2, "seed": 0,
    },
    "tower": {
        "schema": 1, "backend": "tower", "k": 2, "d_max": 5, "rep_depth": 2,
        "multiplicity": 1,
        "pair": {"scale": 0.9, "u": [[1, 0], [0, 0]], "v": [[1, 0], [0, 0]]},
        "strategy": {"kind": "adapted", "phi": "trace"},
        "levels": 2, "copies": 1, "seed": 0,
    },
}

# (block sizes, multiplicities); each shape is used by four scenarios
_SHAPES = (
    ((1,), (1,)), ((1,), (3,)), ((2,), (1,)), ((2,), (2,)),
    ((1, 1), (1, 1)), ((1, 1), (2, 1)), ((2, 1), (1, 2)), ((3,), (1,)),
    ((2, 2), (1, 1)), ((3, 3), (1, 1)), ((2, 2), (2, 2)), ((3, 1), (1, 2)),
)
_N_RANDOM = 48


def _layout(i: int) -> dict:
    """Structure of random scenario ``i``; fixed, so its cost does not depend on the seed."""
    blocks, mults = _SHAPES[i % len(_SHAPES)]
    dynamics = ("identity", "permutation", "inner")[(i + i // len(_SHAPES)) % 3]
    if dynamics == "permutation" and not (len(blocks) == 2 and blocks[0] == blocks[1]
                                          and mults[0] == mults[1]):
        dynamics = "inner"
    return {"blocks": blocks, "mults": mults, "dynamics": dynamics,
            "strategy": "adapted" if i % 2 == 0 else "gns",
            "levels": 1 + (i // 4) % 3, "copies": 1 + (i // 12 + i) % 3,
            "compare": (i // 2) % 2 == 0}


def _alpha_blocks(dynamics, units, a_blocks):
    if dynamics == "identity":
        return a_blocks
    if dynamics == "permutation":
        return [a_blocks[1], a_blocks[0]]
    return [u @ a @ u.conj().T for u, a in zip(units, a_blocks)]


def _pi(mults, basis_u, a_blocks) -> np.ndarray:
    parts = [np.kron(a, np.eye(m)) for a, m in zip(a_blocks, mults)]
    d = sum(p.shape[0] for p in parts)
    out = np.zeros((d, d), dtype=complex)
    o = 0
    for p in parts:
        out[o:o + p.shape[0], o:o + p.shape[0]] = p
        o += p.shape[0]
    return basis_u @ out @ basis_u.conj().T


def _covariant_contraction(blocks, mults, dynamics, units, basis_u, rng) -> np.ndarray:
    """Random T with T pi(alpha(a)) = pi(a) T for every matrix unit a.

    The null space of the stacked equations, column-major vectorization
    vec(A X B) = (B^T kron A) vec(X), rescaled to a random norm in [0.3, 0.95].
    """
    h = sum(n * m for n, m in zip(blocks, mults))
    rows = []
    for b, n in enumerate(blocks):
        for p in range(n):
            for q in range(n):
                a = [np.zeros((m, m), dtype=complex) for m in blocks]
                a[b][p, q] = 1.0
                lhs = _pi(mults, basis_u, _alpha_blocks(dynamics, units, a))
                rhs = _pi(mults, basis_u, a)
                rows.append(np.kron(lhs.T, np.eye(h)) - np.kron(np.eye(h), rhs))
    _, s, vh = np.linalg.svd(np.vstack(rows))
    null_dim = int(np.sum(s <= 1e-10 * max(float(s[0]), 1.0))) + (h * h - len(s))
    basis = vh.conj().T[:, h * h - null_dim:]
    coeff = rng.standard_normal(null_dim) + 1j * rng.standard_normal(null_dim)
    t = (basis @ coeff).reshape(h, h, order="F")
    return t * (float(rng.uniform(0.3, 0.95)) / np.linalg.norm(t, 2))


def _finite(rng, lay: dict) -> dict:
    blocks, mults = lay["blocks"], lay["mults"]
    units = [_haar(n, rng) for n in blocks]
    h = sum(n * m for n, m in zip(blocks, mults))
    basis_u = _haar(h, rng)
    t = _covariant_contraction(blocks, mults, lay["dynamics"], units, basis_u, rng)
    if lay["dynamics"] == "identity":
        alpha = "identity"
    elif lay["dynamics"] == "permutation":
        alpha = {"kind": "permutation", "perm": [1, 0]}
    else:
        alpha = {"kind": "inner", "unitary_blocks": [_enc_matrix(u) for u in units]}
    strategy = ({"kind": "adapted", "tau": "alpha-inverse"} if lay["strategy"] == "adapted"
                else {"kind": "gns", "expectation": "identity"})
    return {
        "schema": 1,
        "backend": "finite-dim",
        "blocks": list(blocks),
        "alpha": alpha,
        "pi": {"multiplicities": list(mults), "unitary": _enc_matrix(basis_u)},
        "T": _enc_matrix(t),
        "strategy": strategy,
        "levels": lay["levels"],
        "copies": lay["copies"],
        "seed": _basis_seed(rng),
    }


def _small_sweep(rng):
    scenarios = {}
    ops = []
    for name, data in _DEMOS.items():
        scenarios[f"demo-{name}"] = data
        ops += [Op(f"small-sweep/demo-{name}/{c}", c, f"demo-{name}") for c in PIPELINE]
    for i in range(_N_RANDOM):
        lay = _layout(i)
        name = f"random-{i:02d}"
        scenarios[name] = _finite(rng, lay)
        ops += [Op(f"small-sweep/{name}/{c}", c, name) for c in PIPELINE]
        if lay["compare"]:
            scenarios[f"{name}-reseeded"] = dict(scenarios[name], seed=_basis_seed(rng))
            ops.append(Op(f"small-sweep/{name}/compare", "compare", name,
                          f"{name}-reseeded"))
    return scenarios, ops
