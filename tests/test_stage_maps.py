"""The tower's depth-fixed stage maps, built from one batched call on the
rows of I_N (the shift's ``alpha_hom``, and the test oracle's
``stage_cpmap`` of the transfer and the expectation), against the
element-by-element construction they replace."""

import numpy as np
import pytest

from covdilate.algebra import StarHom
from covdilate.cpmaps import CPMap
from covdilate.tower import (ShiftTower, TowerExpectation, TowerTransfer, alpha_hom,
                             shift_alpha, state_density)

from dense_oracle import stage_cpmap


def loop_stage_map(kind, tower, src_depth, dst_depth, fn):
    """One GradedElement round trip per basis element."""
    dst = tower.stage(dst_depth)
    cols = [dst.element([fn(b).mat]).coords for b in tower.basis(src_depth)]
    return kind(tower.stage(src_depth), dst, np.column_stack(cols))


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_batched_stage_maps_equal_the_element_loop(depth):
    tower = ShiftTower(3, 4)
    rng = np.random.default_rng(depth)
    density = state_density(tower, rng.standard_normal(3) + 1j * rng.standard_normal(3))
    tau = TowerTransfer(tower, density)
    e = TowerExpectation(tower, density)
    for got, want in [
            (stage_cpmap(tau, depth), loop_stage_map(CPMap, tower, depth, depth - 1, tau)),
            (stage_cpmap(e, depth), loop_stage_map(CPMap, tower, depth, depth, e)),
            (alpha_hom(tower, depth),
             loop_stage_map(StarHom, tower, depth, depth + 1, shift_alpha))]:
        assert type(got) is type(want)
        assert got.source.block_sizes == want.source.block_sizes
        assert got.target.block_sizes == want.target.block_sizes
        assert np.array_equal(got.matrix, want.matrix)
        assert got.matrix.flags.c_contiguous
