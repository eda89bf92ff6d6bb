import itertools
import os

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import redsafe as rs
from redsafe.balancing import BalancingWarning, balance, box_image, truncate
from redsafe.reach import simulate

from conftest import rand_box


def scalar_system():
    return rs.LtiSystem([[-1.0]], [[2.0]], [[3.0]])


def test_scalar_sigma_and_balanced_gramians():
    bal = balance(scalar_system())
    assert bal.sigma == pytest.approx([3.0], abs=1e-12)
    balanced = rs.LtiSystem(bal.A_t, bal.B_t, bal.C_t)
    g = rs.gramians(balanced)
    assert g.Wc[0, 0] == pytest.approx(3.0, abs=1e-10)
    assert g.Wo[0, 0] == pytest.approx(3.0, abs=1e-10)


def test_already_balanced_is_fixed_point(rng):
    bal = balance(rs.random_stable_system(rng, 6, 2, 2))
    again = balance(rs.LtiSystem(bal.A_t, bal.B_t, bal.C_t))
    assert np.allclose(again.sigma, bal.sigma, rtol=1e-8)
    # H of an already balanced system is orthogonal-diagonal-ish; gramians stay
    assert again.bal_defect <= 1e-8


def test_transformed_gramians_diagonal(rng):
    # oracle: recompute the gramians of the balanced realization
    sys_ = rs.random_stable_system(rng, 12, 2, 2)
    bal = balance(sys_)
    g = rs.gramians(rs.LtiSystem(bal.A_t, bal.B_t, bal.C_t))
    D = np.diag(bal.sigma)
    scale = bal.sigma[0]
    assert np.max(np.abs(g.Wc - D)) <= 1e-7 * scale
    assert np.max(np.abs(g.Wo - D)) <= 1e-7 * scale


def test_hsv_matches_eigenvalue_definition(rng):
    sys_ = rs.random_stable_system(rng, 9, 2, 2)
    g = rs.gramians(sys_)
    expected = np.sqrt(np.clip(np.sort(np.linalg.eigvals(g.Wc @ g.Wo).real)[::-1], 0, None))
    assert np.allclose(rs.hankel_singular_values(sys_), expected, rtol=1e-8, atol=1e-12)


def test_hsv_scalar():
    assert rs.hankel_singular_values(scalar_system()) == pytest.approx([3.0], abs=1e-12)


def test_hsv_is_the_balanced_sigma(rng):
    # one factor step: the reported spectrum is the one the bounds use
    sys_ = rs.random_stable_system(rng, 9, 2, 2)
    assert np.array_equal(rs.hankel_singular_values(sys_), balance(sys_).sigma)


def test_hsv_zero_output():
    sys_ = rs.LtiSystem(-np.eye(3), np.ones((3, 1)), np.zeros((1, 3)))
    assert np.array_equal(rs.hankel_singular_values(sys_), np.zeros(3))


def test_hsv_similarity_invariance(rng):
    for _ in range(5):
        n = int(rng.integers(4, 15))
        sys_ = rs.random_stable_system(rng, n, 2, 1)
        hsv = rs.hankel_singular_values(sys_)
        U, _, Vt = np.linalg.svd(rng.standard_normal((n, n)))
        T = U @ np.diag(np.logspace(0, 2, n) ** 0.5) @ Vt
        Tinv = np.linalg.inv(T)
        moved = rs.LtiSystem(T @ sys_.A @ Tinv, T @ sys_.B, sys_.C @ Tinv)
        assert np.allclose(rs.hankel_singular_values(moved), hsv, rtol=1e-6)


def test_rank_deficient_controllability_refused():
    sys_ = rs.LtiSystem(-np.eye(3), np.zeros((3, 1)), np.ones((1, 3)))
    with pytest.raises(rs.RankDeficiencyError, match="minimal"):
        balance(sys_)


def test_unobservable_refused():
    sys_ = rs.LtiSystem(-np.eye(2), np.ones((2, 1)), np.zeros((1, 2)))
    with pytest.raises(rs.RankDeficiencyError):
        balance(sys_)


def test_ill_conditioned_h_warns_but_proceeds(monkeypatch):
    # the rank guards cap reachable cond(H) near 1e6, so exercise the warning
    # mechanism with a lowered threshold on a genuinely skewed system
    import redsafe.balancing as bmod
    monkeypatch.setattr(bmod, "COND_MAX", 1e4)
    sys_ = rs.LtiSystem(np.array([[-1.0, 0.4], [0.0, -2.0]]),
                        np.array([[1.0], [1e-5]]), np.array([[1e-5, 1.0]]))
    with pytest.warns(BalancingWarning):
        bal = balance(sys_)
    assert bal.cond_H > bmod.COND_MAX
    assert bal.cond_H > 1e4
    assert bal.bal_defect <= 1e-6  # computation proceeded and stayed consistent


def test_truncate_identity_at_k_n(rng):
    sys_ = rs.random_stable_system(rng, 5, 1, 1)
    bal = balance(sys_)
    box = rand_box(rng, 5, 3)
    abstraction = truncate(bal, 5, box)
    assert np.array_equal(abstraction.reduced.A, bal.A_t)
    assert np.array_equal(abstraction.reduced.B, bal.B_t)
    assert np.array_equal(abstraction.reduced.C, bal.C_t)
    # x0 image equals the hull of H x0
    mid = bal.H @ box.center
    rad = np.abs(bal.H) @ box.halfwidth
    assert np.allclose(abstraction.x0_reduced.lb, mid - rad)
    assert np.allclose(abstraction.x0_reduced.ub, mid + rad)


def test_truncate_order_validation(rng):
    bal = balance(rs.random_stable_system(rng, 5, 1, 1))
    box = rand_box(rng, 5, 2)
    with pytest.raises(rs.ModelError, match="p < k <= n"):
        truncate(bal, 1, box)
    with pytest.raises(rs.ModelError, match="p < k <= n"):
        truncate(bal, 6, box)
    # a float order would only fail as numpy's TypeError on slicing
    with pytest.raises(rs.ModelError, match="abstraction order must be an integer"):
        truncate(bal, 3.0, box)


def test_x0_reduced_componentwise_tight(rng):
    # every reduced bound is attained by some vertex of the original box
    sys_ = rs.random_stable_system(rng, 7, 1, 1)
    bal = balance(sys_)
    box = rand_box(rng, 7, 6)
    abstraction = truncate(bal, 3, box)
    verts = box.vertices()
    images = bal.H[:3, :] @ verts
    assert np.allclose(images.min(axis=1), abstraction.x0_reduced.lb, atol=1e-12)
    assert np.allclose(images.max(axis=1), abstraction.x0_reduced.ub, atol=1e-12)


@st.composite
def truncation_cases(draw):
    """A balanced system at n <= 7, an order k and a box with f free dims,
    f below, at and above k."""
    n = draw(st.integers(3, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    try:
        bal = balance(rs.random_stable_system(rng, n, 2, 1))
    except rs.RankDeficiencyError:
        assume(False)
    return bal, draw(st.integers(2, n)), rand_box(rng, n, draw(st.integers(0, n)))


@given(truncation_cases())
def test_initial_zonotope_is_the_exact_image(case):
    # x0_reduced stays the hull of box_image, bit for bit; x0_zonotope is
    # centered at H_k c with min(f, k) generators, and lies within that hull
    bal, k, box = case
    abstraction = truncate(bal, k, box)
    H_k, f = bal.H[:k, :], box.free_dims().size
    hull = box_image(H_k, box)
    assert np.array_equal(abstraction.x0_reduced.lb, hull.lb)
    assert np.array_equal(abstraction.x0_reduced.ub, hull.ub)
    z = abstraction.x0_zonotope
    assert np.array_equal(z.center, H_k @ box.center)
    assert z.order == min(f, k)
    rad = np.abs(H_k) @ box.halfwidth
    assert np.all(np.abs(z.center - hull.center) + z.radius_vector()
                  <= hull.halfwidth + 1e-12 * (np.abs(hull.center) + rad))
    if f <= k:
        # the zonotope's vertices are the images of the box's vertices
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=f))).T
        free = box.free_dims()
        verts = np.repeat(box.center[:, None], signs.shape[1], axis=1)
        verts[free] += box.halfwidth[free, None] * signs
        images = H_k @ verts
        np.testing.assert_allclose(z.center[:, None] + z.generators @ signs, images,
                                   rtol=1e-12, atol=1e-12 * np.max(np.abs(images)))


def test_truncation_at_k_n_preserves_io(rng):
    # simulated outputs of balanced vs "reduced" (k=n) system agree
    sys_ = rs.random_stable_system(rng, 6, 1, 1)
    bal = balance(sys_)
    abstraction = truncate(bal, 6, rand_box(rng, 6, 3))
    x0 = rng.standard_normal(6)
    u = np.array([0.7])
    t1 = simulate(rs.LtiSystem(bal.A_t, bal.B_t, bal.C_t), x0, u, 3.0, 0.01)
    t2 = simulate(abstraction.reduced, x0, u, 3.0, 0.01)
    assert np.allclose(t1.outputs, t2.outputs, atol=1e-12)


def test_monotone_convergence_of_balanced_states(rng):
    # balanced zero-input trajectories have nonincreasing norm
    for _ in range(50):
        n = int(rng.integers(2, 10))
        sys_ = rs.random_stable_system(rng, n, int(rng.integers(1, 3)), 1)
        try:
            bal = balance(sys_)
        except rs.RankDeficiencyError:
            continue
        x0 = rng.standard_normal(n)
        traj = simulate(rs.LtiSystem(bal.A_t, bal.B_t, np.eye(n)), x0, None, 2.0,
                        0.05 / max(np.linalg.norm(bal.A_t, 2), 1e-9))
        norms = np.linalg.norm(traj.outputs, axis=1)
        assert np.all(np.diff(norms) <= 1e-9 * norms[0])


class TestAugmentedInitialNorm:
    def test_point_at_origin(self, rng):
        bal = balance(rs.random_stable_system(rng, 4, 1, 1))
        box = rs.HyperBox(np.zeros(4), np.zeros(4))
        aug = rs.augment(rs.FullOrderResponse.of(bal, box, 1.0), 2)
        assert rs.sup_box_norm(aug.lift_box()) == 0.0

    def test_scalar_exact(self):
        # H = sqrt(3/2): lifted vector is (H, H) t over t in [-1, 1]
        bal = balance(scalar_system())
        box = rs.HyperBox([-1.0], [1.0])
        aug = rs.augment(rs.FullOrderResponse.of(bal, box, 1.0), 1)
        sup = rs.sup_box_norm(aug.lift_box())
        expected = np.sqrt(2.0) * abs(bal.H[0, 0])
        assert sup == pytest.approx(expected, rel=1e-12)
        assert sup == pytest.approx(np.sqrt(2.0) * np.sqrt(1.5), rel=1e-12)

    def test_dominates_vertex_enumeration(self, rng):
        # vertex oracle: the true sup over the box is attained at a vertex of
        # the lifted box coordinates, never above the bound
        sys_ = rs.random_stable_system(rng, 5, 1, 1)
        bal = balance(sys_)
        box = rand_box(rng, 5, 5)
        k = 3
        aug = rs.augment(rs.FullOrderResponse.of(bal, box, 1.0), k)
        bound = rs.sup_box_norm(aug.lift_box())
        L = np.vstack([bal.H, bal.H[:k, :]])
        verts = box.vertices()
        true_sup = np.max(np.linalg.norm(L @ verts, axis=0))
        assert true_sup <= bound + 1e-12
        assert bound <= np.sqrt(L.shape[0]) * true_sup + 1e-12


@pytest.mark.skipif(not os.environ.get("REDSAFE_BM_MANIFEST"),
                    reason="SLICOT building-model matrices are not bundled")
def test_bm_transformed_initial_box_matches_published_values():
    prob = rs.parse_problem(os.environ["REDSAFE_BM_MANIFEST"])
    bal = balance(prob.system)
    abstraction = truncate(bal, 10, prob.x0)
    lb_r = [-4.4771e-05, -4.7113e-04, -5.0817e-06, -4.5431e-04, -2.5589e-05,
            -3.4480e-04, -1.5641e-04, -6.8385e-05, -8.2134e-05, -8.7017e-05]
    assert np.allclose(np.sort(np.abs(abstraction.x0_reduced.lb)),
                       np.sort(np.abs(lb_r)), rtol=5e-2)

