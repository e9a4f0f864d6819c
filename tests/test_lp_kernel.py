"""The vertex kernel ``solve_lp_blocks`` against HiGHS, the reference solver
of these tests: the same status, the same optimal value to 1e-12, feasible
points, and the same bits for a block whatever it is solved with."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import pwlkit.conventional as conventional
from pwlkit import Halfspace, Region


@st.composite
def lp_batches(draw):
    """One to four LPs in d = 1..4 variables that share their shape: the
    same bounds pattern and the same number of rows, at most 16 rows in
    all with the finite bounds, small integer coefficients."""
    d = draw(st.integers(1, 4))
    bounds = draw(st.lists(st.tuples(st.sampled_from([None, -3.0, -1.0, 0.0]),
                                     st.sampled_from([None, 0.0, 2.0, 5.0])),
                           min_size=d, max_size=d))
    finite = sum((lo is not None) + (hi is not None) for lo, hi in bounds)
    m = draw(st.integers(0, 16 - finite))
    ints = st.integers(-4, 4)

    def lp():
        c = np.array(draw(st.lists(ints, min_size=d, max_size=d)), dtype=float)
        A = np.array(draw(st.lists(ints, min_size=m * d, max_size=m * d)),
                     dtype=float).reshape(m, d)
        b = np.array(draw(st.lists(st.integers(-8, 8), min_size=m, max_size=m)),
                     dtype=float)
        return c, A, b, bounds

    return [lp() for _ in range(draw(st.integers(1, 4)))]


def highs(block):
    c, A, b, bounds = block
    return linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lp_batches())
def test_kernel_matches_highs_and_its_own_lone_bits(batch):
    solved = conventional.solve_lp_blocks(batch)
    for block, (status, x) in zip(batch, solved):
        ref = highs(block)
        # HiGHS's status 4 is "unbounded or infeasible"
        assert status == ref.status or (ref.status == 4 and status in (2, 3))
        ((alone, x1),) = conventional.solve_lp_blocks([block])
        assert alone == status
        if status != 0:
            assert x is None and x1 is None
            continue
        assert x.tobytes() == x1.tobytes()
        c, A, b, bounds = block
        assert c @ x == pytest.approx(ref.fun, rel=1e-12, abs=1e-12)
        assert np.all(A @ x - b <= 1e-12 * np.maximum(1.0, np.abs(A) @ np.abs(x) + np.abs(b)))
        for v, (lo, hi) in zip(x, bounds):
            assert (lo is None or v >= lo - 1e-12) and (hi is None or v <= hi + 1e-12)


def test_batch_mates_of_other_shapes_leave_the_bits_alone():
    rng = np.random.default_rng(7)
    blocks = []
    for _ in range(60):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(d + 1, 12))
        A = rng.normal(size=(m, d))
        blocks.append((rng.normal(size=d), A, np.abs(rng.normal(size=m)),
                       [(-2.0, 3.0)] * d))
    together = conventional.solve_lp_blocks(blocks)
    for block, (status, x) in zip(blocks, together):
        ((alone, x1),) = conventional.solve_lp_blocks([block])
        assert (status, x.tobytes()) == (alone, x1.tobytes())
        assert block[0] @ x == pytest.approx(highs(block).fun, rel=1e-12, abs=1e-12)


def test_block_over_the_subset_limit_goes_to_highs(monkeypatch):
    # the Chebyshev LP of a 6-D region of 20 halfspaces in its box: 7
    # variables and 32 rows, C(32, 7) subsets
    rng = np.random.default_rng(3)
    normals = rng.normal(size=(20, 6))
    region = Region([Halfspace(a, -1.0) for a in normals])
    block = conventional._chebyshev_lp(region)
    calls = []
    original = conventional.linprog
    monkeypatch.setattr(conventional, "linprog",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    small = conventional._chebyshev_lp(Region([Halfspace(a, -1.0) for a in normals[:2, :2]]))
    (status, x), (small_status, _) = conventional.solve_lp_blocks([block, small])
    assert calls == [1] and status == small_status == 0
    ref = highs(block)
    assert x.tobytes() == ref.x.tobytes()
    center, radius = conventional.chebyshev_center(region)
    assert calls == [1, 1]
    assert center.tobytes() == ref.x[:6].tobytes() and radius == ref.x[6] > 0
