import json

import numpy as np
import pytest

import redsafe as rs
from redsafe.model import POLARITY_SAFE, POLARITY_UNSAFE, require_hurwitz, save_matrix

from conftest import rand_box, rand_ubox


def minimal_problem(tmp_path, **overrides):
    """The smallest well-formed manifest: 1-dim system, box sets, y <= 2."""
    save_matrix(tmp_path / "A.mtx", np.array([[-1.0]]))
    save_matrix(tmp_path / "B.mtx", np.array([[1.0]]))
    save_matrix(tmp_path / "C.mtx", np.array([[1.0]]))
    doc = {
        "format_version": 1,
        "name": "mini",
        "type": "lti",
        "matrices": {"A": "A.mtx", "B": "B.mtx", "C": "C.mtx"},
        "x0": {"lb": [-1.0], "ub": [1.0]},
        "input": {"lb": [0.0], "ub": [1.0]},
        "spec": {"kind": "polytope", "polarity": "safe-region",
                 "Gamma": [[1.0]], "Psi": [-2.0]},
        "t_f": 5.0,
    }
    doc.update(overrides)
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(doc))
    return path


class TestLtiSystem:
    def test_dimensions(self):
        sys_ = rs.LtiSystem(np.eye(3) * -1, np.ones((3, 2)), np.ones((1, 3)))
        assert (sys_.n, sys_.m, sys_.p) == (3, 2, 1)

    def test_b_mismatch_names_matrix(self):
        with pytest.raises(rs.ModelError, match="B"):
            rs.LtiSystem(np.eye(2) * -1, np.ones((3, 1)), np.ones((1, 2)))

    def test_c_mismatch_names_matrix(self):
        with pytest.raises(rs.ModelError, match="C"):
            rs.LtiSystem(np.eye(2) * -1, np.ones((2, 1)), np.ones((1, 3)))

    def test_nonsquare_a(self):
        with pytest.raises(rs.ModelError, match="square"):
            rs.LtiSystem(np.ones((2, 3)), np.ones((2, 1)), np.ones((1, 3)))

    def test_nonfinite_rejected(self):
        A = np.eye(2) * -1.0
        A[0, 1] = np.inf
        with pytest.raises(rs.ModelError, match="finite"):
            rs.LtiSystem(A, np.ones((2, 1)), np.ones((1, 2)))

    def test_arrays_frozen(self):
        sys_ = rs.LtiSystem([[-1.0]], [[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            sys_.A[0, 0] = 7.0


class TestHyperBox:
    def test_inverted_bounds_name_coordinate(self):
        with pytest.raises(rs.ModelError, match="coordinate 1"):
            rs.HyperBox([0.0, 1.0], [1.0, 0.5])

    def test_vertices_skip_degenerate_dims(self):
        box = rs.HyperBox([0.0, -1.0, 2.0], [0.0, 1.0, 2.0])
        verts = box.vertices()
        assert verts.shape == (3, 2)
        assert set(verts[1]) == {-1.0, 1.0}
        assert np.all(verts[0] == 0.0) and np.all(verts[2] == 2.0)

    def test_samples_inside(self, rng):
        box = rand_box(rng, 6, 4)
        xs = box.sample(rng, 50)
        assert np.all(xs >= box.lb[:, None]) and np.all(xs <= box.ub[:, None])


class TestSpecs:
    def test_polytope_shape_mismatch(self):
        with pytest.raises(rs.ModelError, match="rows"):
            rs.PolytopeSpec(np.ones((2, 1)), np.ones(3), POLARITY_SAFE)

    def test_polytope_polarity_validated(self):
        with pytest.raises(rs.ModelError, match="polarity"):
            rs.PolytopeSpec(np.ones((1, 1)), np.ones(1), "sideways")

    def test_ellipsoid_requires_symmetry(self):
        Q = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(rs.ModelError, match="symmetric"):
            rs.EllipsoidSpec(Q, np.zeros(2), 1.0, POLARITY_SAFE)

    def test_ellipsoid_requires_positive_definite(self):
        Q = np.diag([1.0, -0.1])
        with pytest.raises(rs.ModelError, match="positive definite"):
            rs.EllipsoidSpec(Q, np.zeros(2), 1.0, POLARITY_SAFE)

    def test_ellipsoid_radius_positive(self):
        with pytest.raises(rs.ModelError, match="radius"):
            rs.EllipsoidSpec(np.eye(2), np.zeros(2), 0.0, POLARITY_SAFE)


class TestPssSystem:
    def test_length_mismatch(self):
        mode = rs.LtiSystem([[-1.0]], [[1.0]], [[1.0]])
        box = rs.HyperBox([0.0], [0.0])
        with pytest.raises(rs.ModelError, match="equal length"):
            rs.PssSystem((mode,), (0.1, 0.2), (box,))

    def test_unstable_mode_rejected(self):
        ok = rs.LtiSystem([[-1.0]], [[1.0]], [[1.0]])
        bad = rs.LtiSystem([[0.5]], [[1.0]], [[1.0]])
        box = rs.HyperBox([0.0], [0.0])
        with pytest.raises(rs.StabilityError, match="mode 1"):
            rs.PssSystem((ok, bad), (0.1, 0.1), (box, box))

    def test_duration_positive(self):
        mode = rs.LtiSystem([[-1.0]], [[1.0]], [[1.0]])
        box = rs.HyperBox([0.0], [0.0])
        with pytest.raises(rs.ModelError, match="duration"):
            rs.PssSystem((mode,), (0.0,), (box,))


class TestVerificationProblem:
    def _sys(self):
        return rs.LtiSystem(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)))

    def test_input_dim_checked(self):
        spec = rs.PolytopeSpec([[1.0]], [-1.0], POLARITY_SAFE)
        with pytest.raises(rs.ModelError, match="input box"):
            rs.VerificationProblem(self._sys(), rs.HyperBox([0, 0], [0, 0]),
                                   rs.HyperBox([0, 0], [1, 1]), (spec,), 1.0)

    def test_spec_dim_checked(self):
        spec = rs.PolytopeSpec([[1.0, 0.0]], [-1.0], POLARITY_SAFE)
        with pytest.raises(rs.ModelError, match="output dim"):
            rs.VerificationProblem(self._sys(), rs.HyperBox([0, 0], [0, 0]),
                                   rs.HyperBox([0], [1]), (spec,), 1.0)

    def test_tf_finite(self):
        spec = rs.PolytopeSpec([[1.0]], [-1.0], POLARITY_SAFE)
        with pytest.raises(rs.ModelError, match="t_f"):
            rs.VerificationProblem(self._sys(), rs.HyperBox([0, 0], [0, 0]),
                                   rs.HyperBox([0], [1]), (spec,), np.inf)

    def test_mixed_polarity_rejected(self):
        s1 = rs.PolytopeSpec([[1.0]], [-1.0], POLARITY_SAFE)
        s2 = rs.PolytopeSpec([[1.0]], [-1.0], POLARITY_UNSAFE)
        with pytest.raises(rs.ModelError, match="polarity"):
            rs.VerificationProblem(self._sys(), rs.HyperBox([0, 0], [0, 0]),
                                   rs.HyperBox([0], [1]), (s1, s2), 1.0)


class TestStability:
    def test_scalar_stable(self):
        rep = rs.check_stability(rs.LtiSystem([[-1.0]], [[1.0]], [[1.0]]))
        assert rep.stable and rep.abscissa == pytest.approx(-1.0)

    def test_pure_oscillator_not_stable(self):
        sys_ = rs.LtiSystem([[0.0, 1.0], [-1.0, 0.0]], np.zeros((2, 1)), np.ones((1, 2)))
        rep = rs.check_stability(sys_)
        assert not rep.stable
        assert rep.abscissa == pytest.approx(0.0, abs=1e-12)

    def test_motor_block_matrix_hurwitz(self):
        # eigenvalue oracle on the printed 4-dim block: the 8-dim block
        # diagonal has the same spectrum, doubled
        A0 = np.array([[0, 1, 0, 0],
                       [0, -1.0865, 8487.2, 0],
                       [-2592.1, -21.1190, -698.9135, -141390],
                       [1, 0, 0, 0]])
        assert np.max(np.linalg.eigvals(A0).real) < 0
        motor = rs.motor_benchmark()
        rep = rs.check_stability(motor.system.modes[0])
        assert rep.stable
        assert rep.abscissa == pytest.approx(np.max(np.linalg.eigvals(A0).real), rel=1e-9)

    def test_default_margin_scales_with_frobenius_norm(self):
        # ||A||_2 = 1 and ||A||_F = 2: an abscissa of -1.5e-9 clears
        # 1e-9 ||A||_2 but not 1e-9 ||A||_F, so the system is refused
        A = np.diag([-1.5e-9, -1.0, -1.0, -1.0, -1.0])
        rep = rs.check_stability(A)
        assert not rep.stable and rep.margin == pytest.approx(2e-9, rel=1e-12)
        with pytest.raises(rs.StabilityError, match="not asymptotically stable"):
            require_hurwitz(A)

    def test_margin_must_be_positive(self):
        with pytest.raises(rs.ModelError, match="margin"):
            rs.check_stability(rs.LtiSystem([[-1.0]], [[1.0]], [[1.0]]), margin=-1.0)

    @pytest.mark.parametrize("margin", [float("nan"), float("inf"), 0.0])
    def test_margin_must_be_finite_positive(self, margin):
        # NaN passes a `margin <= 0` test and would report stable=False with
        # margin=nan; it is refused like any other margin that is not a
        # finite positive real
        with pytest.raises(rs.ModelError, match="stability margin must be"):
            rs.check_stability(rs.LtiSystem([[-1.0]], [[1.0]], [[1.0]]), margin=margin)


class TestManifests:
    def test_minimal_manifest_parses(self, tmp_path):
        prob = rs.parse_problem(minimal_problem(tmp_path))
        assert prob.system.n == 1 and prob.t_f == 5.0
        assert prob.spec[0].polarity == POLARITY_SAFE

    def test_dimension_mismatch_names_b(self, tmp_path):
        path = minimal_problem(tmp_path)
        save_matrix(tmp_path / "B.mtx", np.ones((2, 1)))
        with pytest.raises(rs.ManifestError, match="B"):
            rs.parse_problem(path)

    def test_missing_matrix_file(self, tmp_path):
        path = minimal_problem(tmp_path, matrices={"A": "A.mtx", "B": "nope.mtx",
                                                   "C": "C.mtx"})
        with pytest.raises(rs.ManifestError, match="nope.mtx"):
            rs.parse_problem(path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(rs.ManifestError, match="not found"):
            rs.parse_problem(tmp_path / "absent.json")

    def test_non_symmetric_q_rejected(self, tmp_path):
        path = minimal_problem(tmp_path, spec={
            "kind": "ellipsoid", "polarity": "safe-region",
            "Q": [[1.0]], "a": [0.0], "R": 1.0})
        prob = rs.parse_problem(path)
        assert isinstance(prob.spec[0], rs.EllipsoidSpec)
        path = minimal_problem(tmp_path, spec={
            "kind": "ellipsoid", "polarity": "safe-region",
            "Q": [[1.0, 0.3], [0.0, 1.0]], "a": [0.0, 0.0], "R": 1.0})
        with pytest.raises(rs.ModelError, match="symmetric"):
            rs.parse_problem(path)

    def test_inverted_box_rejected(self, tmp_path):
        path = minimal_problem(tmp_path, x0={"lb": [1.0], "ub": [-1.0]})
        with pytest.raises(rs.ModelError, match="lb > ub"):
            rs.parse_problem(path)

    def test_motor_manifest_is_two_mode_pss(self):
        prob = rs.motor_benchmark()
        assert isinstance(prob.system, rs.PssSystem)
        assert len(prob.system.modes) == 2
        assert prob.system.durations == (0.1, 0.15)
        assert prob.system.n == 8 and prob.system.m == 2 and prob.system.p == 2
        assert len(prob.spec) == 2

    def test_round_trip_lti_bit_exact(self, rng, tmp_path):
        sys_ = rs.random_stable_system(rng, 7, 2, 2)
        prob = rs.VerificationProblem(
            system=sys_, x0=rand_box(rng, 7), inputs=rand_ubox(rng, 2),
            spec=(rs.EllipsoidSpec(np.diag(rng.uniform(0.5, 2, 2)),
                                   rng.standard_normal(2), 1.5, POLARITY_UNSAFE),),
            t_f=3.0, name="roundtrip")
        path = rs.serialize_problem(prob, tmp_path / "rt.json")
        again = rs.parse_problem(path)
        assert again == prob
        assert np.array_equal(again.system.A, prob.system.A)

    def test_round_trip_pss_bit_exact(self, tmp_path):
        prob = rs.motor_benchmark()
        path = rs.serialize_problem(prob, tmp_path / "motor_rt.json")
        again = rs.parse_problem(path)
        assert again == prob


def test_coordinate_format_matrix_loads(tmp_path):
    # sparse (coordinate) MatrixMarket files load unchanged, as SLICOT ships them
    import scipy.sparse
    import scipy.io
    path = minimal_problem(tmp_path)
    scipy.io.mmwrite(tmp_path / "A.mtx", scipy.sparse.coo_matrix(np.diag([-1.0, -2.0])))
    scipy.io.mmwrite(tmp_path / "B.mtx", scipy.sparse.coo_matrix([[1.0], [0.5]]))
    save_matrix(tmp_path / "C.mtx", np.array([[1.0, 1.0]]))
    doc = json.loads(path.read_text())
    doc["x0"] = {"lb": [0.0, 0.0], "ub": [0.0, 0.0]}
    path.write_text(json.dumps(doc))
    prob = rs.parse_problem(path)
    assert prob.system.n == 2
    assert np.array_equal(prob.system.A, np.diag([-1.0, -2.0]))


# --------------------------------------------------------------------------
# MatrixMarket I/O against scipy.io (a test-only oracle).

from redsafe.model import load_matrix  # noqa: E402


def test_matrix_round_trip_is_bit_exact(tmp_path):
    tiny = np.nextafter(0.0, 1.0)
    mat = np.array([[0.0, -0.0, tiny, -tiny],
                    [1e308, -1e308, np.finfo(float).max, 2.2250738585072014e-308],
                    [np.pi, -1.0 / 3.0, 1e-300, 123456789.123456789]])
    save_matrix(tmp_path / "M.mtx", mat)
    again = load_matrix(tmp_path / "M.mtx")
    assert again.shape == mat.shape
    assert np.array_equal(again.view(np.int64), mat.view(np.int64))


def test_save_matrix_writes_scipy_layout(tmp_path):
    # a non-symmetric matrix is written byte for byte as scipy.io.mmwrite
    # writes it, vectors as one-row matrices
    import scipy.io
    rng = np.random.default_rng(4)
    for mat in (rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-200, 200, (4, 3)),
                np.array([[-0.0, 1.5]])):
        save_matrix(tmp_path / "ours.mtx", mat)
        scipy.io.mmwrite(tmp_path / "theirs.mtx", mat, precision=17)
        assert (tmp_path / "ours.mtx").read_bytes() == (tmp_path / "theirs.mtx").read_bytes()
    save_matrix(tmp_path / "v.mtx", np.array([1.0, 2.0]))
    assert load_matrix(tmp_path / "v.mtx").shape == (1, 2)


def test_scipy_written_files_load_as_scipy_reads_them(tmp_path):
    import scipy.io
    import scipy.sparse
    rng = np.random.default_rng(5)
    S = rng.standard_normal((5, 5))
    S = S + S.T
    cases = {
        "array_general": rng.standard_normal((4, 6)),
        "array_symmetric": S,
        "array_integer": rng.integers(-9, 9, (3, 2)),
        "coordinate_general": scipy.sparse.random(6, 4, density=0.4, random_state=1),
        "coordinate_symmetric": scipy.sparse.coo_matrix(S * (np.abs(S) > 0.8)),
    }
    for name, mat in cases.items():
        path = tmp_path / f"{name}.mtx"
        scipy.io.mmwrite(path, mat, precision=17)
        kind = name.split("_")
        header = path.read_text().splitlines()[0].split()
        assert header[2] == kind[0] and kind[1] in header[3:], name
        ref = scipy.io.mmread(path)
        ref = ref.toarray() if hasattr(ref, "toarray") else ref
        assert np.array_equal(load_matrix(path), ref), name


@pytest.mark.parametrize("text, reason", [
    ("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n", "'pattern'"),
    ("%%MatrixMarket matrix array complex general\n1 1\n1.0 2.0\n", "'complex'"),
    ("%%MatrixMarket matrix array real skew-symmetric\n2 2\n1.0\n", "'skew-symmetric'"),
    ("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n", "expected 4 values"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", "out of range"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1.5 2 3.0\n",
     "indices must be integers"),
    ("1 1\n1.0\n", "not a MatrixMarket matrix header"),
])
def test_unsupported_matrix_files_raise_manifest_error(tmp_path, text, reason):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(rs.ManifestError, match="bad.mtx") as err:
        load_matrix(path)
    assert reason in str(err.value)
