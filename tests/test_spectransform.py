import itertools

import numpy as np
import pytest

import redsafe as rs
from redsafe.model import POLARITY_SAFE, POLARITY_UNSAFE
from redsafe.spectransform import transform_spec


def box_spec(lo, hi, polarity=POLARITY_SAFE):
    """Interval lo <= y <= hi as a 1-output polytope."""
    return rs.PolytopeSpec([[1.0], [-1.0]], [-hi, lo], polarity)


class TestPolytope:
    def test_zero_delta_is_identity(self):
        spec = rs.PolytopeSpec([[1.0, 2.0]], [-1.0], POLARITY_SAFE)
        ts = transform_spec(spec, np.zeros(2))
        assert np.array_equal(ts.safe_region.Psi, spec.Psi)
        assert np.array_equal(ts.unsafe_region.Psi, spec.Psi)
        # a safe source's witnesses are the points outside its grown set
        assert ts.witness_region is ts.unsafe_region

    def test_bm_printed_values(self):
        # safe -0.0015 <= y <= 0.0015 with delta = 3.7219e-4 shrinks to
        # +-0.00112781 exactly at the printed precision
        ts = transform_spec(box_spec(-0.0015, 0.0015), np.array([3.7219e-4]))
        hi = -ts.safe_region.Psi[0]
        lo = ts.safe_region.Psi[1]
        assert hi == pytest.approx(0.00112781, abs=1e-12)
        assert lo == pytest.approx(-0.00112781, abs=1e-12)

    def test_absolute_value_sum(self):
        spec = rs.PolytopeSpec([[1.0, 1.0]], [-1.0], POLARITY_SAFE)
        ts = transform_spec(spec, np.array([0.1, 0.2]))
        assert ts.Delta == pytest.approx([0.3])
        # safe region: y1 + y2 <= 0.7
        assert ts.safe_region.Psi[0] == pytest.approx(-0.7)


class TestEllipsoid:
    def test_identity_q(self):
        spec = rs.EllipsoidSpec(np.eye(3), np.zeros(3), 2.0, POLARITY_SAFE)
        delta = np.array([0.1, 0.2, 0.2])
        ts = transform_spec(spec, delta)
        assert ts.Delta == pytest.approx(np.linalg.norm(delta), rel=1e-12)

    def test_diagonal_q(self):
        spec = rs.EllipsoidSpec(np.diag([4.0, 1.0]), np.zeros(2), 3.0, POLARITY_SAFE)
        ts = transform_spec(spec, np.array([0.5, 1.0]))
        assert ts.Delta == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert ts.safe_region.R == pytest.approx(3.0 - np.sqrt(2.0))
        assert ts.unsafe_region.R == pytest.approx(3.0 + np.sqrt(2.0))

    def test_diagonal_closed_form(self, rng):
        # diagonal Q: Delta_R = sqrt(sum Q_ii delta_i^2)
        q = rng.uniform(0.5, 4.0, size=3)
        delta = rng.uniform(0.0, 0.5, size=3)
        ts = transform_spec(
            rs.EllipsoidSpec(np.diag(q), np.zeros(3), 10.0, POLARITY_SAFE), delta)
        assert ts.Delta == pytest.approx(np.sqrt(np.sum(q * delta ** 2)), rel=1e-12)

    def test_motor_radius(self):
        spec = rs.EllipsoidSpec(np.diag([178.0, 625.0]), np.array([0.325, 0.16]),
                                1.0, POLARITY_UNSAFE)
        ts = transform_spec(spec, np.array([0.0234, 0.0189]))
        assert 1.56 <= ts.unsafe_region.R <= 1.57

    def test_empty_safe_region_marker(self):
        spec = rs.EllipsoidSpec(np.eye(1), np.zeros(1), 0.5, POLARITY_SAFE)
        ts = transform_spec(spec, np.array([0.7]))
        assert ts.safe_region is None
        assert ts.unsafe_region.R == pytest.approx(1.2)

    def test_basis_sign_convention_deterministic(self, rng):
        Q = rng.standard_normal((3, 3))
        Q = Q @ Q.T + 3 * np.eye(3)
        spec = rs.EllipsoidSpec(Q, np.zeros(3), 1.0, POLARITY_SAFE)
        d = rng.uniform(0, 0.01, 3)
        t1 = transform_spec(spec, d)
        t2 = transform_spec(spec, d)
        assert np.array_equal(t1.basis, t2.basis)
        assert all(t1.basis[i, np.argmax(np.abs(t1.basis[i]))] > 0 for i in range(3))


class TestUnsafeVariants:
    def test_zero_delta_polytope(self):
        spec = box_spec(0.35, 0.4, POLARITY_UNSAFE)
        ts = transform_spec(spec, np.zeros(1))
        assert np.array_equal(ts.unsafe_region.Psi, spec.Psi)
        assert ts.safe_region is None

    def test_mcs_unsafe_interval(self):
        # unsafe 0.35 <= y1 <= 0.4 with delta = 0.0025 grows to [0.3475, 0.4025]
        spec = box_spec(0.35, 0.4, POLARITY_UNSAFE)
        ts = transform_spec(spec, np.array([0.0025]))
        grown_hi = -ts.unsafe_region.Psi[0]
        grown_lo = ts.unsafe_region.Psi[1]
        assert grown_hi == pytest.approx(0.4025)
        assert grown_lo == pytest.approx(0.3475)
        # witness region is the shrunk interval [0.3525, 0.3975]
        assert -ts.witness_region.Psi[0] == pytest.approx(0.3975)
        assert ts.witness_region.Psi[1] == pytest.approx(0.3525)

    def test_zero_gamma_row(self):
        spec = rs.PolytopeSpec([[0.0, 0.0], [1.0, 0.0]], [-1.0, -1.0], POLARITY_UNSAFE)
        ts = transform_spec(spec, np.array([0.5, 0.5]))
        assert ts.Delta[0] == 0.0

    def test_unsafe_ellipsoid_zero_delta(self):
        spec = rs.EllipsoidSpec(np.eye(2), np.zeros(2), 1.0, POLARITY_UNSAFE)
        ts = transform_spec(spec, np.zeros(2))
        assert ts.unsafe_region.R == pytest.approx(1.0)

    def test_unsafe_ellipsoid_growth(self):
        spec = rs.EllipsoidSpec(np.eye(2), np.zeros(2), 1.0, POLARITY_UNSAFE)
        ts = transform_spec(spec, np.array([3.0, 4.0]))
        assert ts.unsafe_region.R == pytest.approx(6.0)
        assert ts.witness_region is None  # R - Delta_R < 0


@pytest.mark.parametrize("polarity", [POLARITY_SAFE, POLARITY_UNSAFE])
def test_moved_ellipsoids_keep_the_sources_eigendecomposition(polarity, monkeypatch):
    # once the source's axes are read, both moved regions are copies of it
    # with their own radius and polarity: no eigenvalue routine runs, and
    # they share the source's validated Q and its axes
    spec = rs.EllipsoidSpec([[2.0, 0.6], [0.6, 1.0]], [0.1, -0.2], 0.5, polarity)
    axes = spec.axes

    def refuse(*args, **kwargs):
        raise AssertionError("an eigenvalue routine ran")
    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    ts = transform_spec(spec, np.array([0.01, 0.02]))
    shrunk = ts.safe_region if polarity == POLARITY_SAFE else ts.witness_region
    for moved, R, tag in ((shrunk, spec.R - ts.Delta, polarity),
                          (ts.unsafe_region, spec.R + ts.Delta, POLARITY_UNSAFE)):
        assert moved.Q is spec.Q and moved.a is spec.a and moved.axes is axes
        assert moved.R == R and moved.polarity == tag and spec.R == 0.5
    assert spec.polarity == polarity
    # a margin that overflows still leaves no grown region of infinite radius
    with np.errstate(over="ignore"), pytest.raises(rs.ModelError, match="radius"):
        transform_spec(spec, np.array([1e200, 1e200]))


def test_transform_spec_refuses_bad_delta():
    # every shape and polarity validates delta before using it
    specs = (box_spec(-1.0, 1.0), box_spec(-1.0, 1.0, POLARITY_UNSAFE),
             rs.EllipsoidSpec(np.eye(1), [0.0], 1.0, POLARITY_SAFE),
             rs.EllipsoidSpec(np.eye(1), [0.0], 1.0, POLARITY_UNSAFE))
    for spec in specs:
        for delta, match in (([0.1, 0.2], "shape"), (0.1, "shape"),
                             ([-0.1], "nonnegative"), ([np.nan], "finite"),
                             ([np.inf], "finite")):
            with pytest.raises(rs.ModelError, match=match):
                transform_spec(spec, delta)
    with pytest.raises(rs.ModelError, match="unsupported spec type"):
        transform_spec(object(), [0.1])


class TestPss:
    def test_motor_two_mode_radii(self):
        prob = rs.motor_benchmark()
        deltas = [np.array([0.0234, 0.0189]), np.array([0.0228, 0.0177])]
        per_mode = [[transform_spec(s, d) for s in prob.spec] for d in deltas]
        assert len(per_mode) == 2 and len(per_mode[0]) == 2
        assert per_mode[0][0].unsafe_region.R == pytest.approx(1.566, abs=5e-3)
        assert per_mode[1][0].unsafe_region.R == pytest.approx(1.537, abs=5e-3)

    def test_identical_deltas_identical_specs(self):
        spec = box_spec(-1.0, 1.0)
        d = np.array([0.2])
        a, b = (transform_spec(spec, delta) for delta in (d, d))
        assert np.array_equal(a.safe_region.Psi, b.safe_region.Psi)


class TestProperties:
    def test_margins_monotone_in_delta(self, rng):
        spec = rs.PolytopeSpec(rng.standard_normal((4, 3)), rng.standard_normal(4),
                               POLARITY_SAFE)
        d1 = rng.uniform(0, 0.5, 3)
        d2 = d1 + rng.uniform(0, 0.5, 3)
        t1 = transform_spec(spec, d1)
        t2 = transform_spec(spec, d2)
        assert np.all(t2.Delta >= t1.Delta - 1e-15)
        ell = rs.EllipsoidSpec(np.diag([2.0, 1.0, 3.0]), np.zeros(3), 5.0, POLARITY_SAFE)
        assert transform_spec(ell, d2).Delta >= transform_spec(ell, d1).Delta

    @pytest.mark.parametrize("shape", ["polytope", "ellipsoid",
                                       "unsafe-polytope", "unsafe-ellipsoid"])
    def test_safety_relation_sampling(self, rng, shape):
        # a reduced output y_r certified safe (inside the shrunk safe region,
        # or outside the grown forbidden one) has every y within delta of it
        # safe; one with a positive witness margin has every such y unsafe
        p = 2
        polarity = POLARITY_UNSAFE if shape.startswith("unsafe") else POLARITY_SAFE
        if shape.endswith("polytope"):
            spec = rs.PolytopeSpec(rng.standard_normal((4, p)),
                                   -np.abs(rng.standard_normal(4)) - 0.5,
                                   polarity)
            def inside(s, y):
                return np.all(s.margins(y) <= 0)
        else:
            Q = rng.standard_normal((p, p))
            Q = Q @ Q.T + np.eye(p)
            spec = rs.EllipsoidSpec(Q, rng.standard_normal(p), 2.0, polarity)
            def inside(s, y):
                return s.quad(y) <= s.R ** 2
        delta = rng.uniform(0.01, 0.2, p)
        ts = transform_spec(spec, delta)

        def certified_safe(y_r):
            if polarity == POLARITY_UNSAFE:
                return not inside(ts.unsafe_region, y_r)
            return ts.safe_region is not None and inside(ts.safe_region, y_r)

        def samples():
            for _ in range(1000):
                y_r = rng.uniform(-3, 3, p)
                yield y_r, y_r + rng.uniform(-1, 1, p) * delta
            if shape.endswith("ellipsoid"):
                # y_r between radius R + Delta_R/2 and R + Delta_R along
                # random directions, y at the corners of its delta box: a
                # radius grown by less than Delta_R lets such a y_r pass
                # with a full-order neighbour on the wrong side
                corners = np.array(list(itertools.product((-1.0, 1.0), repeat=p))) * delta
                for _ in range(200):
                    u = rng.standard_normal(p)
                    radius = rng.uniform(spec.R + ts.Delta / 2, spec.R + ts.Delta)
                    y_r = spec.a + radius * u / np.sqrt(u @ spec.Q @ u)
                    for y in y_r + corners:
                        yield y_r, y

        violations, certified, witnessed = 0, 0, 0
        for y_r, y in samples():
            safe = inside(spec, y) == (polarity == POLARITY_SAFE)
            if certified_safe(y_r):
                certified += 1
                violations += not safe
            if ts.witness_margins(y_r[None])[0] > 0:
                witnessed += 1
                violations += safe
        assert violations == 0 and certified > 0 and witnessed > 0
