import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multiframe.dof import Regime
from multiframe.errors import AmbiguityError, InputError, NotEssentialError, RankDeficientError
from multiframe.geometry import Rotation, vec3
import multiframe.persp2f as persp2f
from multiframe.persp2f import (
    DEPTH_SINGULAR,
    PARALLAX,
    DepthVote,
    _parallax_gap,
    _pure_rotation_fit,
    bearing,
    decompose,
    normalize_distinguished,
    recover_depths,
    relative_truth_motion,
    solve_composite,
    two_frame_reconstruct,
)
from multiframe.scene import (
    MotionScript,
    NoiseSpec,
    add_noise,
    random_cloud_scene,
    random_motion_script,
    render,
)
from multiframe.geometry import RigidMotion


def make_scene(seed, n_points=10):
    scene = random_cloud_scene(seed, n_points=n_points)
    script = random_motion_script(seed + 1, 2, Regime.PERSPECTIVE_CALIBRATED, scene)
    ds = render(scene, script, Regime.PERSPECTIVE_CALIBRATED)
    return ds


def skew(v):
    return np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0.0]])


def truth_composite(ds):
    rot, trans = relative_truth_motion(ds)
    e = skew(trans) @ rot.matrix
    return e / np.linalg.norm(e)


def angle_between(u, v):
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return np.arccos(np.clip(u @ v, -1, 1))


def normalize_in_key_order(pts1, pts2, distinguished):
    """normalize_distinguished on two label dicts, rows in ``pts1``'s key order."""
    labels = list(pts1)
    return normalize_distinguished(
        labels, np.array(list(pts1.values())), np.array([pts2[l] for l in labels]), distinguished
    )


class TestNormalize:
    def test_distinguished_maps_to_origin(self):
        ds = make_scene(1)
        lab = ds.labels[3]
        norm = normalize_distinguished(ds.labels, ds.points[0], ds.points[1], lab)
        assert np.allclose(norm.points1[3], 0.0, atol=1e-12)
        assert np.allclose(norm.points2[3], 0.0, atol=1e-12)

    def test_already_centered_gives_identity(self):
        pts1 = np.array([[0.0, 0.0], [0.3, 0.1]])
        pts2 = np.array([[0.0, 0.0], [0.2, -0.1]])
        norm = normalize_distinguished(("a", "b"), pts1, pts2, "a")
        assert np.allclose(norm.rot1.matrix, np.eye(3))
        assert np.allclose(norm.rot2.matrix, np.eye(3))

    def test_roundtrip_restores_originals(self):
        ds = make_scene(2)
        lab = ds.labels[0]
        norm = normalize_distinguished(ds.labels, ds.points[0], ds.points[1], lab)
        # the inverse rotations: rows R^T b, back on the plane z = 1
        m1 = bearing(norm.points1) @ norm.rot1.matrix
        m2 = bearing(norm.points2) @ norm.rot2.matrix
        back1, back2 = m1[:, :2] / m1[:, 2:], m2[:, :2] / m2[:, 2:]
        for j in range(len(ds.labels)):
            assert np.allclose(back1[j], ds.points[0][j], atol=1e-12)
            assert np.allclose(back2[j], ds.points[1][j], atol=1e-12)

    def test_missing_label_rejected(self):
        with pytest.raises(InputError):
            normalize_distinguished(("a",), np.zeros((1, 2)), np.zeros((1, 2)), "zz")

    def test_label_missing_from_second_frame_named(self):
        # the second frame's array ends after the row of "a": "b" is the first label without one
        pts1 = np.array([[0.0, 0.0], [0.3, 0.1], [0.1, 0.2]])
        pts2 = np.zeros((1, 2))
        with pytest.raises(InputError, match="'b'"):
            normalize_distinguished(("a", "b", "c"), pts1, pts2, "a")
        with pytest.raises(InputError, match="one \\(u, v\\) row per label"):
            normalize_distinguished(("a", "b", "c"), pts1, np.zeros((4, 2)), "a")

    def test_field_of_view_names_first_label_in_points1_order(self):
        # the distinguished point sits 84 degrees off axis in both frames, on
        # opposite sides; turning it onto the axis carries a point on the far
        # side behind the focal point.  "c" leaves in frame 2 only, "b" in
        # frame 1 only and "a" in both; the labels are deliberately unsorted,
        # and the first one in row order is named.
        far, near = 10.0, 0.1
        pts1 = {
            "d": np.array([far, 0.0]),
            "m": np.array([near, 0.0]),
            "c": np.array([near, 0.0]),
            "b": np.array([-far, 0.0]),
            "a": np.array([-far, 0.0]),
        }
        pts2 = {
            "d": np.array([-far, 0.0]),
            "m": np.array([-near, 0.0]),
            "c": np.array([far, 0.0]),
            "b": np.array([-near, 0.0]),
            "a": np.array([far, 0.0]),
        }
        with pytest.raises(InputError, match="label 'c' leaves the field of view"):
            normalize_in_key_order(pts1, pts2, "d")
        del pts1["c"], pts2["c"]
        with pytest.raises(InputError, match="label 'b' leaves the field of view"):
            normalize_in_key_order(pts1, pts2, "d")
        del pts1["b"], pts2["b"]
        with pytest.raises(InputError, match="label 'a' leaves the field of view"):
            normalize_in_key_order(pts1, pts2, "d")
        del pts1["a"], pts2["a"]
        norm = normalize_in_key_order(pts1, pts2, "d")
        assert np.allclose(norm.points1[0], 0.0) and np.allclose(norm.points2[0], 0.0)


class TestEliminationConstraint:
    def test_truth_composite_annihilates_correspondences(self):
        ds = make_scene(3)
        e = truth_composite(ds)
        for m1, m2 in zip(ds.points[0], ds.points[1]):
            assert abs(bearing(m2) @ e @ bearing(m1)) < 1e-10


class TestSolveComposite:
    def test_recovers_truth_up_to_sign(self):
        ds = make_scene(5)
        c1, c2 = ds.points[:, :9]
        e, s_min, _ = solve_composite(c1, c2)
        e_true = truth_composite(ds)
        if np.sum(e * e_true) < 0:
            e = -e
        assert np.linalg.norm(e - e_true) < 1e-8
        assert s_min < 1e-10

    def test_identical_points_rank_error(self):
        p = [np.array([0.1, 0.2])] * 9
        with pytest.raises(RankDeficientError):
            solve_composite(p, p)

    def test_eight_points_need_override(self):
        ds = make_scene(6)
        c1, c2 = ds.points[:, :8]
        with pytest.raises(InputError, match="ine"):
            solve_composite(c1, c2)
        e, _, _ = solve_composite(c1, c2, allow_eight=True)
        e_true = truth_composite(ds)
        if np.sum(e * e_true) < 0:
            e = -e
        assert np.linalg.norm(e - e_true) < 1e-7

    def test_noisy_points_keep_small_residuals(self):
        ds = make_scene(7, n_points=20)
        noisy = add_noise(ds, NoiseSpec(1e-4, seed=8))
        c1, c2 = noisy.points
        e, _, _ = solve_composite(c1, c2)
        for p1, p2 in zip(c1, c2):
            assert abs(bearing(p2) @ e @ bearing(p1)) < 1e-3


class TestDecompose:
    def test_candidates_contain_truth_and_twin(self):
        rng = np.random.default_rng(9)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        rot = Rotation.from_axis_angle(axis, 0.8)
        t = rng.normal(size=3)
        t /= np.linalg.norm(t)
        e = skew(t) @ rot.matrix
        cands = decompose(e / np.linalg.norm(e))
        assert len(cands) == 4
        rot_hit = min(c[0].angle_to(rot) for c in cands)
        t_hit = min(
            min(np.linalg.norm(c[1] - t), np.linalg.norm(c[1] + t)) for c in cands
        )
        assert rot_hit < 1e-9
        assert t_hit < 1e-9

    def test_pure_translation_keeps_identity(self):
        t = np.array([0.0, 0.0, 1.0])
        e = skew(t)
        cands = decompose(e / np.linalg.norm(e))
        assert min(c[0].angle_to(Rotation.identity()) for c in cands) < 1e-9

    def test_sign_of_scale_irrelevant(self):
        rng = np.random.default_rng(10)
        rot = Rotation.from_axis_angle(np.array([0, 1.0, 0]), 0.4)
        t = np.array([1.0, 0.2, 0.1])
        t /= np.linalg.norm(t)
        e = skew(t) @ rot.matrix
        e /= np.linalg.norm(e)
        a = decompose(e)
        b = decompose(-e)
        for (ra, ta), (rb, tb) in zip(a, b):
            assert ra.angle_to(rb) < 1e-12
            assert np.allclose(ta, tb)

    def test_structure_violation_rejected(self):
        with pytest.raises(NotEssentialError) as err:
            decompose(np.diag([1.0, 0.5, 0.0]))
        # three plain floats, whatever numpy's print options
        assert "singular values 1.000e+00, 5.000e-01, 0.000e+00 " in str(err.value)


class TestRecoverDepths:
    def test_unique_survivor_with_true_depths(self):
        ds = make_scene(11)
        labels = ds.labels
        norm = normalize_distinguished(labels, ds.points[0], ds.points[1], labels[0])
        c1, c2 = norm.points1, norm.points2
        e, _, _ = solve_composite(c1, c2)
        votes = [recover_depths(a, t, c1, c2) for a, t in decompose(e)]
        assert sum(v.accepted for v in votes) == 1

    def test_reversed_baseline_rejected(self):
        ds = make_scene(12)
        labels = ds.labels
        norm = normalize_distinguished(labels, ds.points[0], ds.points[1], labels[0])
        c1, c2 = norm.points1, norm.points2
        e, _, _ = solve_composite(c1, c2)
        cands = decompose(e)
        votes = [recover_depths(a, t, c1, c2) for a, t in cands]
        winner = next(i for i, v in enumerate(votes) if v.accepted)
        a_win, t_win = cands[winner]
        mirror = recover_depths(a_win, -t_win, c1, c2)
        assert not mirror.accepted
        valid = ~np.isnan(mirror.depths[:, 0])
        assert np.all(mirror.depths[valid] < 0)

    def test_baseline_point_excluded(self):
        # a correspondence sitting on the epipole makes its system singular
        rot = Rotation.identity()
        t = np.array([0.0, 0.0, 1.0])  # baseline along the optical axis
        c1 = [np.zeros(2), np.array([0.3, 0.2])]
        c2 = [np.zeros(2), np.array([0.5, 0.4])]
        vote = recover_depths(rot, t, c1, c2)
        assert 0 in vote.excluded

    def test_nan_depth_not_accepted(self):
        # a NaN passes "no depth <= 0"; acceptance asks for every depth > 0
        t = np.array([np.nan, 0.0, 1.0])
        vote = recover_depths(Rotation.identity(), t, [np.zeros(2)], [np.ones(2)])
        assert vote.excluded == []
        assert np.isnan(vote.depths).all()
        assert not vote.accepted


def reference_depths(rotation, translation, corr1, corr2):
    """Per-point depth vote: one svd and one lstsq for each correspondence."""
    n = len(corr1)
    depths = np.full((n, 2), np.nan)
    ratios = np.empty(n)
    excluded = []
    accepted = True
    for i, (p1, p2) in enumerate(zip(corr1, corr2)):
        m1 = rotation.matrix @ bearing(p1)
        m2 = bearing(p2)
        mat = np.column_stack([m1, -m2])
        sv = np.linalg.svd(mat, compute_uv=False)
        ratios[i] = sv[1] / sv[0]
        if sv[1] <= DEPTH_SINGULAR * sv[0]:
            excluded.append(i)
            continue
        z, *_ = np.linalg.lstsq(mat, -translation, rcond=None)
        depths[i] = z
        if z[0] <= 0 or z[1] <= 0:
            accepted = False
    if len(excluded) == n:
        accepted = False
    return depths, ratios, excluded, accepted


unit_coords = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
image_coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


class TestRecoverDepthsProperty:
    @settings(max_examples=200)
    @given(
        data=st.data(),
        axis=arrays(np.float64, 3, elements=unit_coords),
        angle=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        direction=arrays(np.float64, 3, elements=unit_coords),
        length=st.floats(min_value=0.1, max_value=10.0),
        n=st.integers(1, 12),
    )
    def test_matches_per_point_reference(self, data, axis, angle, direction, length, n):
        assume(np.linalg.norm(axis) > 0.1 and np.linalg.norm(direction) > 0.1)
        rot = Rotation.from_axis_angle(axis / np.linalg.norm(axis), angle)
        t = length * direction / np.linalg.norm(direction)
        c1 = data.draw(arrays(np.float64, (n, 2), elements=image_coords))
        c2 = data.draw(arrays(np.float64, (n, 2), elements=image_coords))
        # some points sit on the baseline: A m1 parallel to m2, a singular system
        on_baseline = data.draw(arrays(np.bool_, n))
        for i in np.flatnonzero(on_baseline):
            w = rot.matrix.T @ bearing(c2[i])
            if abs(w[2]) > 0.1:
                c1[i] = w[:2] / w[2]
        want, ratios, excluded, accepted = reference_depths(rot, t, c1, c2)
        # stay well away from the exclusion threshold, where the two
        # factorizations may round to different sides
        assume(np.all((ratios < 1e-12) | (ratios >= 1e-3)))
        # depths are compared relative to the point's larger depth or to |t|,
        # the size of the right-hand side; a depth at rounding distance from
        # zero on that scale has no sign to compare
        kept = ~np.isnan(want[:, 0])
        scale = np.maximum(np.abs(want[kept]).max(axis=1, keepdims=True), length)
        assume(np.all(np.abs(want[kept]) > 1e-9 * scale))

        # least-squares depths move with the square of the condition number
        # 1/ratio, so the 1e-12 agreement holds from ratio 1e-2 and widens below
        rel = 1e-12 * np.maximum(1.0, (1e-2 / ratios[kept, None]) ** 2)

        vote = recover_depths(rot, t, list(c1), list(c2))
        assert vote.excluded == excluded
        assert vote.accepted == accepted
        assert np.array_equal(np.isnan(vote.depths), np.isnan(want))
        assert np.all(np.abs(vote.depths[kept] - want[kept]) <= rel * scale)


class TestTwoFrameReconstruct:
    def test_recovers_motion_and_structure(self):
        for seed in (21, 22, 23, 24, 25):
            ds = make_scene(seed)
            est = two_frame_reconstruct(ds)
            rot_true, t_true = relative_truth_motion(ds)
            assert est.rotation.angle_to(rot_true) < 1e-6
            assert angle_between(est.translation, t_true) < 1e-6
            assert est.survivors == 1 and not est.baseline_degenerate
            assert all(z1 > 0 and z2 > 0 for z1, z2 in est.depths.values())
            # structure matches truth after the distinguished-depth gauge
            d = est.distinguished
            true_pts = {
                lab: ds.truth.points3d[lab] for lab in ds.labels
            }  # frame 1 = identity motion, camera coords = scene coords
            gauge = np.linalg.norm(true_pts[d])
            for lab in ds.labels:
                err = np.linalg.norm(est.points3d[lab] - true_pts[lab] / gauge)
                assert err < 1e-6

    def test_identity_motion_flags_degenerate_baseline(self):
        scene = random_cloud_scene(31, n_points=10)
        script = MotionScript(motions=[RigidMotion.identity()] * 2)
        ds = render(scene, script, Regime.PERSPECTIVE_CALIBRATED)
        est = two_frame_reconstruct(ds)
        assert est.baseline_degenerate
        assert est.rotation.angle_to(Rotation.identity()) < 1e-8
        assert est.translation is None

    def test_pure_rotation_flags_degenerate_baseline(self):
        scene = random_cloud_scene(32, n_points=10)
        centroid = np.mean(list(scene.points.values()), axis=0)
        rot = Rotation.from_axis_angle(vec3(0, 1, 0), 0.15)
        # rotate the object about the focal point: no baseline, bearings rotate
        script = MotionScript(
            motions=[RigidMotion.identity(), RigidMotion(rot, np.zeros(3))]
        )
        ds = render(scene, script, Regime.PERSPECTIVE_CALIBRATED)
        est = two_frame_reconstruct(ds)
        assert est.baseline_degenerate
        assert est.rotation.angle_to(rot) < 1e-8

    def test_eight_points_rejected_without_override(self):
        ds = make_scene(33, n_points=8)
        with pytest.raises(InputError, match="[Nn]ine"):
            two_frame_reconstruct(ds)
        est = two_frame_reconstruct(ds, allow_eight=True)
        rot_true, t_true = relative_truth_motion(ds)
        assert est.rotation.angle_to(rot_true) < 1e-6

    def test_ten_thousand_points_stay_small(self):
        # the composite SVD is thin: a full one holds an n x n U, 800 MB at this size
        ds = make_scene(5, n_points=10_000)
        tracemalloc.start()
        try:
            two_frame_reconstruct(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    def test_regime_mismatch_rejected(self):
        from multiframe.scene import random_triangle_scene

        scene = random_triangle_scene(34)
        script = random_motion_script(35, 2, Regime.ORTHOGRAPHIC, scene)
        ds = render(scene, script, Regime.ORTHOGRAPHIC)
        with pytest.raises(InputError, match="calibrated"):
            two_frame_reconstruct(ds)

    def test_scale_gauge_invariance(self):
        # uniformly rescaling the scene leaves the gauged structure unchanged
        seed = 41
        scene = random_cloud_scene(seed, n_points=10)
        script = random_motion_script(seed + 1, 2, Regime.PERSPECTIVE_CALIBRATED, scene)
        ds1 = render(scene, script, Regime.PERSPECTIVE_CALIBRATED)
        from multiframe.scene import SceneSpec

        scaled = SceneSpec({k: 2.5 * v for k, v in scene.points.items()})
        script2 = MotionScript(
            motions=[
                RigidMotion(m.rotation, 2.5 * m.translation) for m in script.motions
            ]
        )
        ds2 = render(scaled, script2, Regime.PERSPECTIVE_CALIBRATED)
        est1 = two_frame_reconstruct(ds1)
        est2 = two_frame_reconstruct(ds2)
        for lab in ds1.labels:
            assert np.linalg.norm(est1.points3d[lab] - est2.points3d[lab]) < 1e-8

    def test_constraint_residual_invariant_bound(self):
        ds = make_scene(42)
        est = two_frame_reconstruct(ds)
        assert est.max_constraint_residual < 1e-6


def pure_rotation_pair(seed, n, angle, delta, j):
    """Two frames' ``(2, n, 2)`` images of points rotated about the focal point by
    ``angle``, the bearing of point ``j`` in frame 2 then turned by ``delta`` rad."""
    rng = np.random.default_rng(seed)
    p = np.column_stack([rng.uniform(-2, 2, (n, 2)), rng.uniform(1, 3, n)])
    axis = rng.normal(size=3)
    q = p @ Rotation.from_axis_angle(axis / np.linalg.norm(axis), angle).matrix.T
    off = np.cross(q[j], rng.normal(size=3))  # an axis perpendicular to the bearing
    q[j] = Rotation.from_axis_angle(off / np.linalg.norm(off), delta).apply(q[j])
    return np.array([p[:, :2] / p[:, 2:], q[:, :2] / q[:, 2:]])


class TestParallaxBound:
    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 12),
        angle=st.floats(-0.3, 0.3),
        delta=st.floats(0.0, 1e-6),
        j=st.integers(0, 11),
    )
    def test_skipped_fit_would_miss_its_gate(self, seed, n, angle, delta, j):
        points = pure_rotation_pair(seed, n, angle, delta, j % n)
        if _parallax_gap(points) > PARALLAX:
            _, resid = _pure_rotation_fit(bearing(points[0]), bearing(points[1]))
            assert resid >= 1e-7

    @pytest.mark.parametrize("sigma", [0.0, 1e-6, 1e-4, 1e-2])
    def test_forced_fit_changes_no_estimate(self, monkeypatch, sigma):
        scenes = [make_scene(seed) for seed in (51, 52, 53)]
        # the scene of test_identity_motion_flags_degenerate_baseline
        cloud = random_cloud_scene(31, n_points=10)
        still = MotionScript(motions=[RigidMotion.identity()] * 2)
        scenes.append(render(cloud, still, Regime.PERSPECTIVE_CALIBRATED))
        for i, ds in enumerate(scenes):
            ds = add_noise(ds, NoiseSpec(sigma, seed=i))
            outcomes = []
            for bound in (PARALLAX, np.inf):  # an infinite bound decides nothing
                monkeypatch.setattr(persp2f, "PARALLAX", bound)
                try:
                    outcomes.append(estimate_bits(two_frame_reconstruct(ds)))
                except (AmbiguityError, NotEssentialError, RankDeficientError) as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1]


def estimate_bits(est):
    """Every field of a MotionEstimate, arrays as their bytes."""
    def bits(v):
        if isinstance(v, np.ndarray):
            return v.shape, v.tobytes()
        if isinstance(v, Rotation):
            return bits(v.matrix)
        if isinstance(v, dict):
            return [(k, bits(x)) for k, x in v.items()]
        if isinstance(v, float):
            return np.float64(v).tobytes()
        return v

    return {k: bits(v) for k, v in vars(est).items()}
