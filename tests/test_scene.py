
import numpy as np
import pytest

from multiframe.dataio import read_dataset, write_dataset
from multiframe.dof import Regime
from multiframe.errors import GenerationError, InputError, ParseError
from multiframe.geometry import CameraPose, RigidMotion, Rotation, project_points, vec3
from multiframe.scene import (
    CLOUD_SPREAD,
    CurveSpec,
    FrameObs,
    MotionScript,
    MultiframeDataset,
    NoiseSpec,
    SceneSpec,
    TruthBlock,
    add_noise,
    random_arc_scene,
    random_cloud_scene,
    random_motion_script,
    random_triangle_scene,
    render,
    truth_poses,
)


def make_dataset(seed=1, regime=Regime.ORTHOGRAPHIC, frames=3):
    scene = random_triangle_scene(seed)
    if regime is not Regime.ORTHOGRAPHIC:  # in front of the perspective camera
        scene = SceneSpec({lab: p + (0, 0, 3) for lab, p in scene.points.items()})
    script = random_motion_script(seed + 1, frames, regime, scene)
    return render(scene, script, regime)


class TestRender:
    def test_identity_script_gives_identical_frames(self):
        scene = random_triangle_scene(2)
        script = MotionScript(motions=[RigidMotion.identity()] * 3)
        ds = render(scene, script, Regime.ORTHOGRAPHIC)
        for j in range(len(ds.labels)):
            for pts in ds.points[1:]:
                assert np.allclose(pts[j], ds.points[0][j])

    def test_orthographic_invariant_to_normal_translation(self):
        scene = random_triangle_scene(3)
        script = random_motion_script(4, 3, Regime.ORTHOGRAPHIC, scene)
        shifted = MotionScript(
            motions=[script.motions[0]]
            + [
                RigidMotion(m.rotation, m.translation + vec3(0, 0, 2.5))
                for m in script.motions[1:]
            ]
        )
        a = render(scene, script, Regime.ORTHOGRAPHIC)
        b = render(scene, shifted, Regime.ORTHOGRAPHIC)
        for fa, fb in zip(a.points, b.points):
            for j in range(len(a.labels)):
                assert np.allclose(fa[j], fb[j], atol=1e-12)

    def test_truth_reprojects_to_observations(self):
        for regime in (Regime.ORTHOGRAPHIC, Regime.PERSPECTIVE_CALIBRATED):
            scene = (
                random_triangle_scene(5)
                if regime is Regime.ORTHOGRAPHIC
                else random_cloud_scene(5)
            )
            script = random_motion_script(6, 3, regime, scene)
            ds = render(scene, script, regime)
            truth = SceneSpec(dict(ds.truth.points3d))
            redone = render(truth, MotionScript(ds.truth.motions), regime)
            assert redone.labels == ds.labels
            for f, g in zip(ds.points, redone.points):
                for j in range(len(ds.labels)):
                    assert np.allclose(f[j], g[j], atol=1e-12)

    def test_rigidity_of_truth_block(self):
        ds = make_dataset(7, Regime.PERSPECTIVE_CALIBRATED)
        t = ds.truth
        labels = sorted(t.points3d)
        base = {
            (a, b): np.linalg.norm(t.points3d[a] - t.points3d[b])
            for a in labels
            for b in labels
        }
        for m in t.motions:
            for a in labels:
                for b in labels:
                    d = np.linalg.norm(m.apply(t.points3d[a]) - m.apply(t.points3d[b]))
                    assert abs(d - base[(a, b)]) < 1e-12

    def test_points_follow_sorted_labels(self):
        # the scene lists its labels unsorted; rows of every frame follow the sorted tuple
        xyz = {"c": vec3(0, 1, 3), "a": vec3(0, 0, 3), "b": vec3(1, 0, 3)}
        scene = SceneSpec(xyz)
        script = random_motion_script(10, 2, Regime.PERSPECTIVE_CALIBRATED, scene)
        ds = render(scene, script, Regime.PERSPECTIVE_CALIBRATED)
        assert ds.labels == ("a", "b", "c") and ds.points.shape == (2, 3, 2)
        points = [xyz[lab] for lab in ds.labels]
        for i in range(2):
            images, _ = project_points(points, truth_poses(ds, i))
            assert np.allclose(ds.points[i], images, atol=1e-12)

    def test_uncalibrated_regime_refused(self):
        scene = random_cloud_scene(8, n_points=7)
        script = random_motion_script(9, 2, Regime.PERSPECTIVE_CALIBRATED, scene)
        with pytest.raises(InputError, match="perspective_uncalibrated"):
            render(scene, script, Regime.PERSPECTIVE_UNCALIBRATED)
        ds = render(scene, script, Regime.PERSPECTIVE_CALIBRATED)
        with pytest.raises(InputError, match="perspective_uncalibrated"):
            MultiframeDataset(Regime.PERSPECTIVE_UNCALIBRATED, ds.labels, ds.points, ds.frames)
        blob = write_dataset(ds).replace(b"perspective_calibrated", b"perspective_uncalibrated")
        with pytest.raises(ParseError, match="regime"):
            read_dataset(blob)

    def test_generation_error_names_frame_and_label(self):
        scene = SceneSpec({"a": vec3(0, 0, 2), "b": vec3(1, 0, 2), "c": vec3(0, 1, -5)})
        script = MotionScript(motions=[RigidMotion.identity()])
        with pytest.raises(GenerationError, match=r"frame 1.*'c'"):
            render(scene, script, Regime.PERSPECTIVE_CALIBRATED)

    def test_curve_sample_behind_camera_names_frame_curve_and_sample(self):
        # frame 2 moves the scene one unit back: only sample 2 ends up behind the camera
        samples = np.array([[0.0, 0, 2], [0.1, 0, 2], [0.2, 0, 0.5], [0.3, 0, 2]])
        scene = SceneSpec(
            {"a": samples[0], "b": samples[-1], "c": vec3(0, 1, 2)},
            [CurveSpec("arc", samples, ("a", "b"))],
        )
        script = MotionScript(
            motions=[RigidMotion.identity(), RigidMotion(Rotation.identity(), vec3(0, 0, -1))]
        )
        with pytest.raises(GenerationError, match=r"^frame 2, curve 'arc', sample 2: "):
            render(scene, script, Regime.PERSPECTIVE_CALIBRATED)

    def test_first_bad_row_of_any_frame_named_as_per_frame_loop(self):
        # frame 3 moves 'c' and 'a' behind the camera; 'c' comes first in scene order
        scene = SceneSpec({"d": vec3(0, 0, 5), "c": vec3(1, 0, 3), "a": vec3(0, 1, 3.1)})
        back, behind = (RigidMotion(Rotation.identity(), vec3(0, 0, z)) for z in (1, -3.2))
        script = MotionScript(motions=[RigidMotion.identity(), back, behind])
        with pytest.raises(GenerationError) as info:
            render(scene, script, Regime.PERSPECTIVE_CALIBRATED)
        assert str(info.value) == "frame 3, point 'c': point at depth -0.2 cannot be projected"

    def test_sample_of_second_curve_named_as_per_frame_loop(self):
        # frame 2 moves the scene one unit back: the first curve stays in front,
        # samples 1 and 3 of the second end up behind the camera
        first = np.array([[0.0, 0, 2], [0.1, 0, 2], [0.2, 0, 2]])
        second = np.array([[0.0, 1, 2], [0.1, 1, 0.5], [0.2, 1, 2], [0.3, 1, 0.25]])
        scene = SceneSpec(
            {"a": first[0], "b": first[-1], "c": second[0], "d": second[-1] + (0, 0, 2)},
            [CurveSpec("first", first, ("a", "b")), CurveSpec("second", second, ("c", "d"))],
        )
        script = MotionScript(
            motions=[RigidMotion.identity(), RigidMotion(Rotation.identity(), vec3(0, 0, -1))]
        )
        with pytest.raises(GenerationError) as info:
            render(scene, script, Regime.PERSPECTIVE_CALIBRATED)
        assert str(info.value) == (
            "frame 2, curve 'second', sample 1: point at depth -0.5 cannot be projected"
        )

    def test_determinism(self):
        a = write_dataset(make_dataset(11))
        b = write_dataset(make_dataset(11))
        assert a == b


class TestNoise:
    def test_zero_sigma_identity(self):
        ds = make_dataset(12)
        noisy = add_noise(ds, NoiseSpec(0.0, seed=3))
        assert write_dataset(noisy) == write_dataset(ds)

    def test_same_seed_same_output(self):
        ds = make_dataset(13)
        a = add_noise(ds, NoiseSpec(1e-3, seed=5))
        b = add_noise(ds, NoiseSpec(1e-3, seed=5))
        assert write_dataset(a) == write_dataset(b)

    def test_truth_untouched(self):
        ds = make_dataset(14)
        noisy = add_noise(ds, NoiseSpec(1e-2, seed=5))
        for lab in ds.truth.points3d:
            assert np.array_equal(noisy.truth.points3d[lab], ds.truth.points3d[lab])

    def test_matches_per_label_reference_loop(self):
        # pins the draw order: per frame, labels in sorted order, then each curve
        scene = random_arc_scene(16, n_samples=12)
        script = random_motion_script(17, 3, Regime.PERSPECTIVE_CALIBRATED, scene)
        ds = render(scene, script, Regime.PERSPECTIVE_CALIBRATED)
        noise = NoiseSpec(1e-3, seed=8)
        noisy = add_noise(ds, noise)
        rng = np.random.default_rng(noise.seed)
        assert noisy.labels == ds.labels == tuple(sorted(ds.labels))
        for f, g, fp, gp in zip(ds.frames, noisy.frames, ds.points, noisy.points):
            for j in range(len(ds.labels)):
                expected = fp[j] + rng.normal(scale=noise.sigma, size=2)
                assert np.array_equal(gp[j], expected)
            for c, d in zip(f.curves, g.curves):
                expected = c["samples"] + rng.normal(scale=noise.sigma, size=c["samples"].shape)
                assert np.array_equal(d["samples"], expected)

    def test_empirical_sigma(self):
        # statistical oracle: stddev of the injected perturbations
        sigma = 2.5e-3
        scene = random_cloud_scene(15, n_points=100)
        script = MotionScript(motions=[RigidMotion.identity()] * 100)
        ds = render(scene, script, Regime.PERSPECTIVE_CALIBRATED)
        noisy = add_noise(ds, NoiseSpec(sigma, seed=6))
        deltas = []
        for f, g in zip(ds.points, noisy.points):
            for j in range(len(ds.labels)):
                deltas.extend(g[j] - f[j])
        assert len(deltas) == 20000  # 1e4 perturbed points, two coordinates each
        assert abs(np.std(deltas) - sigma) < 0.05 * sigma


class TestSerialization:
    def test_roundtrip_exact(self):
        for seed, regime in [(21, Regime.ORTHOGRAPHIC), (22, Regime.PERSPECTIVE_CALIBRATED)]:
            ds = make_dataset(seed, regime)
            blob = write_dataset(ds)
            back = read_dataset(blob)
            assert back.regime == ds.regime
            assert back.labels == ds.labels
            for f, g in zip(ds.points, back.points):
                for j in range(len(ds.labels)):
                    assert np.array_equal(f[j], g[j])
            for lab in ds.truth.points3d:
                assert np.array_equal(back.truth.points3d[lab], ds.truth.points3d[lab])
            for m, n in zip(ds.truth.motions, back.truth.motions):
                assert np.array_equal(m.rotation.matrix, n.rotation.matrix)
                assert np.array_equal(m.translation, n.translation)
            # writing the parse result reproduces the bytes
            assert write_dataset(back) == blob

    def test_curve_roundtrip(self):
        scene = random_arc_scene(25, n_samples=20)
        script = random_motion_script(26, 2, Regime.PERSPECTIVE_CALIBRATED, scene)
        ds = render(scene, script, Regime.PERSPECTIVE_CALIBRATED)
        back = read_dataset(write_dataset(ds))
        c0 = ds.frames[0].curves[0]
        c1 = back.frames[0].curves[0]
        assert c1["id"] == c0["id"]
        assert c1["endpoints"] == c0["endpoints"]
        assert np.array_equal(c1["samples"], c0["samples"])
        assert np.array_equal(back.truth.curves3d[0]["samples"], ds.truth.curves3d[0]["samples"])

    def test_unknown_regime_rejected(self):
        blob = b'{"regime": "isometric", "frames": [{"id": 1, "points": {"a": [0, 0]}}]}'
        with pytest.raises(ParseError, match="regime"):
            read_dataset(blob)

    def test_malformed_json_reports_location(self):
        with pytest.raises(ParseError, match="line"):
            read_dataset(b'{"regime": "orthographic", ')

    def test_handwritten_minimal_file(self):
        blob = b"""
        {
          "regime": "orthographic",
          "frames": [
            {"id": 1, "points": {"only": [0.25, -1.5]}}
          ]
        }
        """
        ds = read_dataset(blob)
        assert ds.regime is Regime.ORTHOGRAPHIC
        assert ds.n_frames == 1
        assert ds.labels == ("only",)
        assert np.array_equal(ds.points[0][ds.labels.index("only")], [0.25, -1.5])
        assert ds.truth is None

    def test_numbers_are_shortest_round_trip_text(self):
        written = [
            (0.1, b"0.1"),
            (0.1 + 0.2, b"0.30000000000000004"),  # needs all 17 digits
            (1 / 3, b"0.3333333333333333"),
            (-0.0, b"-0.0"),
            (5e-324, b"5e-324"),
        ]
        for value, text in written:
            ds = MultiframeDataset(Regime.ORTHOGRAPHIC, ("a",), [[[value, 2.5]]], [FrameObs(0, [])])
            assert b'"a":[' + text + b",2.5]" in write_dataset(ds)
            assert repr(value).encode() == text  # Python's shortest round-trip repr


class TestCloud:
    def test_ten_thousand_points_return(self):
        n = 10_000
        scene = random_cloud_scene(3, n_points=n)
        pts = np.array(list(scene.points.values()))
        assert len(scene.points) == n and pts.shape == (n, 3)
        assert np.all(np.abs(pts - (0.0, 0.0, 3.0)) <= 1.0)
        # every pair is farther apart than the separation, which shrinks with n:
        # neighbours in x order, offset by offset, while any lies within it in x
        sep = min(0.15, CLOUD_SPREAD * n ** (-1 / 3))
        pts = pts[pts[:, 0].argsort()]
        for k in range(1, n):
            d = pts[k:] - pts[:-k]
            near = d[:, 0] <= sep
            if not near.any():
                break
            assert np.all(np.linalg.norm(d[near], axis=1) > sep)

    @staticmethod
    def quadratic_cloud(seed, n_points):
        """The cloud generator's points by a scan of every kept point per draw, as it
        was before the grid: the grid's reference, draw for draw and decision for
        decision.  (That scan also skipped points more than 2 sep away along x,
        which pass the test anyway.)"""
        rng = np.random.default_rng(seed)
        sep = min(0.15, CLOUD_SPREAD * n_points ** (-1 / 3))
        pts = np.empty((n_points, 3))
        k = 0
        while k < n_points:
            p = np.array([0.0, 0.0, 3.0]) + rng.uniform(-1.0, 1.0, size=3)
            d = pts[:k] - p
            if (np.sqrt((d[:, None] @ d[:, :, None]).ravel()) > sep).all():
                pts[k] = p
                k += 1
        if n_points >= 3 and np.linalg.norm(np.cross(pts[1] - pts[0], pts[2] - pts[0])) < 0.05:
            return TestCloud.quadratic_cloud(seed + 100_003, n_points)
        return pts

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 101, 102, 1000])
    def test_grid_equals_quadratic_scan(self, n):
        for seed in range(1, 21):
            pts = np.array(list(random_cloud_scene(seed, n).points.values()))
            assert pts.tobytes() == self.quadratic_cloud(seed, n).tobytes(), seed

    def test_separation_is_fixed_up_to_101_points(self):
        assert CLOUD_SPREAD * 101 ** (-1 / 3) > 0.15 > CLOUD_SPREAD * 102 ** (-1 / 3)


class TestSpecValidation:
    def test_collinear_first_three_labels_rejected(self):
        with pytest.raises(InputError, match="collinear"):
            SceneSpec({"a": vec3(0, 0, 0), "b": vec3(1, 0, 0), "c": vec3(2, 0, 0)})

    def test_labels_must_be_str(self):
        with pytest.raises(InputError, match="^label 1 is int, not str$"):
            SceneSpec({1: [0, 0, 3.0], 2: [1, 0, 3.0], 3: [0, 1, 3.0]})

    @pytest.mark.parametrize(
        "bad", [[1.0, 2.0], [0.0, np.nan, 3.0], [0.0, 0.0, np.inf], [[0.0, 0.0, 3.0]]]
    )
    def test_points_must_be_finite_3_vectors(self, bad):
        with pytest.raises(InputError, match="^point 'b' must be a finite 3-vector$"):
            SceneSpec({"a": [0, 0, 3.0], "b": bad, "c": [0, 1, 3.0]})

    def test_curve_samples_must_be_finite(self):
        samples = np.array([[0.0, 0, 2], [np.nan, 0, 2], [0.2, 0, 2]])
        with pytest.raises(InputError, match="^curve 'arc' samples must be finite$"):
            CurveSpec("arc", samples, ("a", "b"))

    @pytest.mark.parametrize("n", [0, -2, 2.5, "10"])
    def test_cloud_size_checked(self, n):
        with pytest.raises(InputError, match="^n_points must be an integer >= 1"):
            random_cloud_scene(1, n)

    @pytest.mark.parametrize("n", [0, 1, 2.5])
    def test_arc_size_checked(self, n):
        with pytest.raises(InputError, match="^n_samples must be an integer >= 2"):
            random_arc_scene(1, n)

    def test_script_first_motion_off_identity_by_allclose_bound(self):
        near = Rotation.from_axis_angle(vec3(0, 0, 1), 1e-9)
        MotionScript(motions=[RigidMotion(near, vec3(1e-9, 0, -1e-9))])
        far = Rotation.from_axis_angle(vec3(0, 0, 1), 1e-7)  # off-diagonal entries 1e-7
        for motion in (RigidMotion(far, vec3(0, 0, 0)), RigidMotion(near, vec3(0, 1e-7, 0))):
            with pytest.raises(InputError, match="identity"):
                MotionScript(motions=[motion])

    def test_script_first_motion_must_be_identity(self):
        rot = Rotation.from_axis_angle(vec3(0, 0, 1), 0.3)
        with pytest.raises(InputError, match="identity"):
            MotionScript(motions=[RigidMotion(rot, vec3(0, 0, 0))])

    def test_frames_share_labels(self):
        # a frame without a row for the first label: the points no longer match the label set
        ds = make_dataset(33)
        with pytest.raises(InputError, match="label set"):
            MultiframeDataset(ds.regime, ds.labels, ds.points[:, 1:], ds.frames, ds.truth)
        with pytest.raises(InputError, match="label set"):
            MultiframeDataset(ds.regime, ds.labels[1:], ds.points, ds.frames, ds.truth)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_image_points_must_be_finite(self, bad):
        ds = make_dataset(34)
        points = ds.points.copy()
        points[2, 1, 0] = bad
        with pytest.raises(InputError) as info:
            MultiframeDataset(ds.regime, ds.labels, points, ds.frames, ds.truth)
        assert str(info.value) == "frame index 2: image point of label 'Q' is not finite"

    def test_motion_count_must_match_frames(self):
        ds = make_dataset(35)
        t = ds.truth
        for motions in (t.motions[:1], t.motions * 2):
            truth = TruthBlock(t.points3d, motions, t.curves3d)
            with pytest.raises(InputError) as info:
                MultiframeDataset(ds.regime, ds.labels, ds.points, ds.frames, truth)
            assert str(info.value) == f"truth holds {len(motions)} motions for 3 frames"

    @pytest.mark.parametrize("regime", [Regime.ORTHOGRAPHIC, Regime.PERSPECTIVE_CALIBRATED])
    def test_truth_poses_are_canonical_poses_moved_back(self, regime):
        # bit for bit the canonical pose carried by the inverse motion, point by point
        canonical = (
            CameraPose.canonical_orthographic()
            if regime is Regime.ORTHOGRAPHIC
            else CameraPose.canonical_perspective()
        )
        for seed in range(5):
            ds = make_dataset(40 + seed, regime)
            for i, motion in enumerate(ds.truth.motions):
                inv = motion.inverse()
                want = (
                    inv.apply(canonical.origin),
                    inv.rotation.apply(canonical.basis_u),
                    inv.rotation.apply(canonical.basis_v),
                    None if canonical.focal is None else inv.apply(canonical.focal),
                )
                pose = truth_poses(ds, i)
                got = (pose.origin, pose.basis_u, pose.basis_v, pose.focal)
                for g, w in zip(got, want):
                    assert (g is None and w is None) or g.tobytes() == w.tobytes()

    def test_truth_poses_match_object_motion(self):
        # observing the moved object equals observing with the inverse-moved camera
        ds = make_dataset(34, Regime.PERSPECTIVE_CALIBRATED)
        points = [ds.truth.points3d[lab] for lab in ds.labels]
        for i, pts in enumerate(ds.points):
            images, _ = project_points(points, truth_poses(ds, i))
            assert np.allclose(images, pts, atol=1e-10)
