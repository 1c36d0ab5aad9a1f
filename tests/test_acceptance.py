"""Acceptance suite: the exit criteria, one test per criterion.

Each test prints a single pass/fail line; tolerances are pinned here and
never loosened.  The randomized corpus spans both backends (52 scenarios,
seeded) and is shared through session fixtures.
"""

import json
import re

import numpy as np

from covdilate.cli import main
from covdilate.covariant import AdaptedStrategy
from covdilate.cpmaps import (expectation_from_transfer,
                              transfer_from_expectation, verify_transfer)
from covdilate.dilation import (compose_unitary, explicit_matricial_unitary,
                                schaffer_dilate, verify_isometric_dilation)
from covdilate.equivalence import chain_intertwiner, dilation_intertwiner
from covdilate.extension import coisometric_extend, verify_coisometric_extension
from covdilate.numerics import orthonormal_span, spectral_norm
from covdilate.scenario import demo_fixture
from covdilate.tower import (ShiftTower, TowerTransfer, alpha_hom,
                             shift_down_pair, state_density)

from dense_oracle import stage_cpmap
from test_dilation import classical_schaffer_full, matrix_pair


def _report(criterion: str, detail: str, ok: bool):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_covariance_preservation(corpus, built_chains):
    """Assembled (rho, V) stays covariant, truncated-coisometric and restricts
    to (pi, T)."""
    assert len(corpus) >= 50
    worst_cov = 0.0
    worst_coiso = 0.0
    worst_restrict = 0.0
    for case in corpus:
        chain = built_chains[case.name]
        assert chain.n_levels <= 3
        rep = verify_coisometric_extension(chain)
        by_name = {c.name: c.residual for c in rep.clauses}
        worst_cov = max(worst_cov, by_name["chain/covariance"])
        worst_coiso = max(worst_coiso, by_name["chain/coisometry"])
        worst_restrict = max(worst_restrict, by_name["chain/representation-restricts"],
                             by_name["chain/contraction-restricts"])
    ok = worst_cov <= 1e-8 and worst_coiso <= 1e-8 and worst_restrict <= 1e-10
    _report("criterion-1 covariance preservation",
            f"{len(corpus)} scenarios, covariance {worst_cov:.2e}, "
            f"coisometry {worst_coiso:.2e}, restriction {worst_restrict:.2e}", ok)


def test_criterion_2_dilation_identity(corpus, built_chains):
    """P_H U^n |H = T^n up to min(levels, copies) and interior-window
    unitarity for the composed dilation."""
    worst_comp = 0.0
    worst_unit = 0.0
    for case in corpus:
        chain = built_chains[case.name]
        rec = compose_unitary(chain, case.copies)
        by_name = {c.name: c.residual for c in rec.report.clauses}
        worst_comp = max(worst_comp, by_name["unitary/compression"])
        worst_unit = max(worst_unit, by_name["unitary/isometric-interior"],
                         by_name["unitary/coisometric-interior"])
    ok = worst_comp <= 1e-7 and worst_unit <= 1e-7
    _report("criterion-2 dilation identity",
            f"{len(corpus)} scenarios, compression {worst_comp:.2e}, "
            f"interior unitarity {worst_unit:.2e}", ok)


def test_criterion_3_classical_oracle():
    """For scalar dynamics the construction reproduces the classical
    isometric dilation entrywise against an independently coded one."""
    worst = 0.0
    from covdilate.numerics import block_diag
    for dim, seed in [(1, 10), (2, 11), (3, 12), (4, 13)]:
        pair = matrix_pair(dim, seed)
        for copies in (1, 2, 3):
            rec = schaffer_dilate(pair, copies)
            w_cl = classical_schaffer_full(pair.contraction, copies)
            r = rec.block_dims[1]
            basis = rec.eta.parts[1].basis if r else np.zeros((dim, 0), dtype=complex)
            embed = block_diag([np.eye(dim)] + [basis] * copies)
            worst = max(worst, np.abs(w_cl @ embed - embed @ rec.w).max())
            for n in range(copies + 1):
                lhs = np.linalg.matrix_power(w_cl, n)[:dim, :dim]
                rhs = np.linalg.matrix_power(rec.w, n)[:dim, :dim]
                worst = max(worst, np.abs(lhs - rhs).max())
    # the scalar fixture must agree with the classical matrix literally
    rec = schaffer_dilate(matrix_pair(1, 10, norm=0.6), 2)
    t = rec.source_pair.contraction[0, 0]
    w_cl = classical_schaffer_full(np.array([[t]]), 2)
    worst = max(worst, np.abs(rec.w - w_cl).max())
    ok = worst <= 1e-10
    _report("criterion-3 classical oracle", f"entrywise deviation {worst:.2e}", ok)


def test_criterion_4_matricial_oracle(corpus, built_chains):
    """The explicit two-sided form and the composed route are certified
    unitarily equivalent."""
    cases = [c for c in corpus if c.backend == "finite-dim"][:15] \
        + [c for c in corpus if c.backend == "tower"][:5]
    assert len(cases) >= 20
    worst = 0.0
    for case in cases:
        chain = built_chains[case.name]
        composed = schaffer_dilate(chain.as_pair(), case.copies)
        explicit = explicit_matricial_unitary(chain, case.copies)
        cert = dilation_intertwiner(composed, explicit)
        assert cert.verdict == "equivalent", case.name
        worst = max(worst, cert.max_residual)
    ok = worst <= 1e-6
    _report("criterion-4 matricial oracle",
            f"{len(cases)} scenarios, worst intertwiner residual {worst:.2e}", ok)


def test_criterion_5_adapted_uniqueness(corpus):
    """Two independently seeded adapted chains over the same transfer
    operator are certified equivalent."""
    cases = [c for c in corpus if c.backend == "finite-dim"][:15] \
        + [c for c in corpus if c.backend == "tower"][:6]
    assert len(cases) >= 20
    assert any(c.backend == "tower" for c in cases)
    worst = 0.0
    for i, case in enumerate(cases):
        c1 = coisometric_extend(case.pair, case.levels, case.strategy,
                                basis_seed=1000 + i)
        c2 = coisometric_extend(case.pair, case.levels, case.strategy,
                                basis_seed=2000 + i)
        cert = chain_intertwiner(c1, c2)
        assert cert.verdict == "equivalent", case.name
        worst = max(worst, cert.residuals["unitarity_left"],
                    cert.residuals["unitarity_right"])
    ok = worst <= 1e-7
    _report("criterion-5 adapted uniqueness",
            f"{len(cases)} scenario pairs, worst unitarity residual {worst:.2e}", ok)


def test_criterion_6_nonuniqueness_witness():
    """Chains adapted to the trace state and to a vector state are
    certified inequivalent with an independently recomputed witness."""
    tower = ShiftTower(2, 5)
    pair = shift_down_pair(tower, 2, 1, 0.9, [1, 0], [0, 1])
    tau1 = TowerTransfer(tower, state_density(tower, "trace"))
    tau2 = TowerTransfer(tower, state_density(tower, [1, 0]))
    c1 = coisometric_extend(pair, 1, AdaptedStrategy(tau1))
    c2 = coisometric_extend(pair, 1, AdaptedStrategy(tau2))
    cert = chain_intertwiner(c1, c2)
    ok = cert.verdict == "inequivalent" and cert.witness is not None
    witness = cert.witness
    mismatch = witness.mismatch if witness else 0.0
    # recompute the Gram mismatch from (pi, tau1, tau2) alone
    recomputed = 0.0
    if witness is not None:
        bi, bj = (int(x) for x in re.findall(r"basis\[(\d+)\]", witness.element))
        basis = pair.system.basis(2)
        y = basis[bi].adjoint() * basis[bj]
        v1 = pair.rep(tau1(y))[witness.left_vector, witness.right_vector]
        v2 = pair.rep(tau2(y))[witness.left_vector, witness.right_vector]
        recomputed = abs(v1 - v2)
    ok = ok and mismatch >= 10 * 1e-8 and abs(recomputed - mismatch) <= 1e-12
    _report("criterion-6 non-uniqueness witness",
            f"verdict {cert.verdict}, mismatch {mismatch:.3e} "
            f"(recomputed {recomputed:.3e})", ok)


def test_criterion_7_transfer_calculus(corpus):
    """tau o alpha = id, E = alpha o tau idempotent, per-block Choi PSD,
    and the expectation round-trip recovers tau."""
    worst_left = 0.0
    worst_idem = 0.0
    worst_choi = 0.0
    worst_round = 0.0
    checked = 0
    for case in corpus:
        strat = case.strategy
        if case.backend == "finite-dim":
            tau = strat.transfer
            alpha = case.pair.system.alpha
        else:
            depth = case.pair.depth + 1
            tau = stage_cpmap(strat.transfer, depth)
            alpha = alpha_hom(case.pair.system.tower, depth - 1)
        rep = verify_transfer(tau, alpha)
        worst_left = max(worst_left, rep.left_inverse_residual)
        worst_choi = max(worst_choi, max(0.0, -rep.cp.min_eig))
        e = expectation_from_transfer(alpha, tau)
        idem = max(spectral_norm(e(e(a)).full_matrix() - e(a).full_matrix())
                   for a in e.source.basis())
        worst_idem = max(worst_idem, idem)
        tau_back = transfer_from_expectation(alpha, e)
        worst_round = max(worst_round, spectral_norm(tau.matrix - tau_back.matrix))
        checked += 1
    ok = (worst_left <= 1e-10 and worst_idem <= 1e-9
          and worst_choi <= 1e-10 and worst_round <= 1e-10)
    _report("criterion-7 transfer calculus",
            f"{checked} systems, left-inverse {worst_left:.2e}, idempotency "
            f"{worst_idem:.2e}, Choi defect {worst_choi:.2e}, "
            f"round-trip {worst_round:.2e}", ok)


def test_criterion_8_minimality_and_coisometry(corpus):
    """Minimality of the isometric dilation at every truncation up to four
    copies, and coisometry inheritance for coisometric sources."""
    minimal_ok = True
    for case in corpus[:10]:
        for copies in (1, 2, 3, 4):
            if case.backend == "tower" and case.pair.depth + copies \
                    > case.pair.system.d_max:
                continue
            rec = schaffer_dilate(case.pair, copies)
            cols = []
            power = np.eye(rec.total_dim, dtype=complex)
            for _ in range(copies + 1):
                cols.append(power @ rec.source_embed)
                power = rec.w @ power
            _, rank = orthonormal_span(np.hstack(cols))
            minimal_ok = minimal_ok and rank == rec.total_dim
    worst_coiso = 0.0
    coiso_cases = [c for c in corpus if c.unitary_contraction]
    assert coiso_cases
    for case in coiso_cases:
        for copies in (1, 2, 3, 4):
            rec = schaffer_dilate(case.pair, copies)
            rep = verify_isometric_dilation(rec)
            cl = next(c for c in rep.clauses
                      if c.name == "dilation/coisometry-inherited")
            worst_coiso = max(worst_coiso, cl.residual)
    ok = minimal_ok and worst_coiso <= 1e-8
    _report("criterion-8 minimality and coisometry",
            f"minimality up to 4 copies {minimal_ok}, "
            f"coisometry inheritance {worst_coiso:.2e}", ok)


def test_criterion_9_determinism(tmp_path):
    """Identical (scenario, seed) produce byte-identical reports."""
    ok = True
    for name in ("scalar", "tower"):
        data = demo_fixture(name)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        outs = []
        for i in (1, 2):
            out = tmp_path / f"{name}-{i}.json"
            code = main(["unitary", "--scenario", str(path), "--out", str(out)])
            ok = ok and code == 0
            outs.append(out.read_bytes())
        ok = ok and outs[0] == outs[1]
    _report("criterion-9 determinism", "two consecutive runs byte-identical", ok)
