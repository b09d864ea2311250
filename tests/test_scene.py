import numpy as np
import pytest

from multiframe.dataio import read_dataset, write_dataset
from multiframe.dof import Regime
from multiframe.errors import GenerationError, InputError, ParseError
from multiframe.geometry import RigidMotion, Rotation, project, vec3
from multiframe.scene import (
    CurveSpec,
    MotionScript,
    MultiframeDataset,
    NoiseSpec,
    SceneSpec,
    add_noise,
    random_arc_scene,
    random_camera_ring,
    random_cloud_scene,
    random_motion_script,
    random_triangle_scene,
    render,
    rerender_truth,
    truth_poses,
    validate_general_position,
)


def make_dataset(seed=1, regime=Regime.ORTHOGRAPHIC, frames=3):
    center = (0, 0, 0) if regime is Regime.ORTHOGRAPHIC else (0, 0, 3)
    scene = random_triangle_scene(seed, center)
    script = random_motion_script(seed + 1, frames, regime, scene)
    return render(scene, script, regime)


class TestRender:
    def test_identity_script_gives_identical_frames(self):
        scene = random_triangle_scene(2)
        script = MotionScript(motions=[RigidMotion.identity()] * 3)
        ds = render(scene, script, Regime.ORTHOGRAPHIC)
        for lab in ds.labels:
            for f in ds.frames[1:]:
                assert np.allclose(f.points[lab], ds.frames[0].points[lab])

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
        for fa, fb in zip(a.frames, b.frames):
            for lab in a.labels:
                assert np.allclose(fa.points[lab], fb.points[lab], atol=1e-12)

    def test_truth_reprojects_to_observations(self):
        for regime in (Regime.ORTHOGRAPHIC, Regime.PERSPECTIVE_CALIBRATED):
            scene = (
                random_triangle_scene(5)
                if regime is Regime.ORTHOGRAPHIC
                else random_cloud_scene(5)
            )
            script = random_motion_script(6, 3, regime, scene)
            ds = render(scene, script, regime)
            redone = rerender_truth(ds)
            for f, g in zip(ds.frames, redone.frames):
                for lab in ds.labels:
                    assert np.allclose(f.points[lab], g.points[lab], atol=1e-12)

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

    def test_uncalibrated_epipoles_are_exact(self):
        scene = random_cloud_scene(8, n_points=7, center=(0, 0, 0))
        poses = random_camera_ring(9, 4)
        ds = render(scene, MotionScript(poses=poses), Regime.PERSPECTIVE_UNCALIBRATED)
        for i, f in enumerate(ds.frames):
            assert set(f.epipoles) == {j + 1 for j in range(4) if j != i}
            for j, e in f.epipoles.items():
                expected = project(poses[j - 1].focal, poses[i])
                assert np.allclose(e, expected, atol=1e-12)

    def test_generation_error_names_frame_and_label(self):
        scene = SceneSpec({"a": vec3(0, 0, 2), "b": vec3(1, 0, 2), "c": vec3(0, 1, -5)})
        script = MotionScript(motions=[RigidMotion.identity()])
        with pytest.raises(GenerationError, match=r"frame 1.*'c'"):
            render(scene, script, Regime.PERSPECTIVE_CALIBRATED)

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

    def test_empirical_sigma(self):
        # statistical oracle: stddev of the injected perturbations
        sigma = 2.5e-3
        scene = random_cloud_scene(15, n_points=100, center=(0, 0, 3))
        script = MotionScript(motions=[RigidMotion.identity()] * 100)
        ds = render(scene, script, Regime.PERSPECTIVE_CALIBRATED)
        noisy = add_noise(ds, NoiseSpec(sigma, seed=6))
        deltas = []
        for f, g in zip(ds.frames, noisy.frames):
            for lab in ds.labels:
                deltas.extend(g.points[lab] - f.points[lab])
        assert len(deltas) == 20000  # 1e4 perturbed points, two coordinates each
        assert abs(np.std(deltas) - sigma) < 0.05 * sigma


class TestSerialization:
    def test_roundtrip_exact(self):
        for seed, regime in [(21, Regime.ORTHOGRAPHIC), (22, Regime.PERSPECTIVE_CALIBRATED)]:
            ds = make_dataset(seed, regime)
            blob = write_dataset(ds)
            back = read_dataset(blob)
            assert back.regime == ds.regime
            for f, g in zip(ds.frames, back.frames):
                for lab in ds.labels:
                    assert np.array_equal(f.points[lab], g.points[lab])
            for lab in ds.truth.points3d:
                assert np.array_equal(back.truth.points3d[lab], ds.truth.points3d[lab])
            for m, n in zip(ds.truth.motions, back.truth.motions):
                assert np.array_equal(m.rotation.matrix, n.rotation.matrix)
                assert np.array_equal(m.translation, n.translation)
            # writing the parse result reproduces the bytes
            assert write_dataset(back) == blob

    def test_uncalibrated_roundtrip(self):
        scene = random_cloud_scene(23, n_points=7, center=(0, 0, 0))
        ds = render(
            scene,
            MotionScript(poses=random_camera_ring(24, 4)),
            Regime.PERSPECTIVE_UNCALIBRATED,
        )
        blob = write_dataset(ds)
        back = read_dataset(blob)
        assert write_dataset(back) == blob
        for f, g in zip(ds.frames, back.frames):
            for j in f.epipoles:
                assert np.array_equal(f.epipoles[j], g.epipoles[j])

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
        assert np.array_equal(ds.frames[0].points["only"], [0.25, -1.5])
        assert ds.truth is None

    def test_seventeen_digit_numbers(self):
        ds = make_dataset(27)
        text = write_dataset(ds).decode()
        # a third of a unit cannot be written exactly in fewer digits
        v = ds.frames[0].points[ds.labels[0]][0]
        assert format(float(v), ".17g") in text


class TestValidation:
    def test_generic_scene_is_clean(self):
        ds = make_dataset(31, Regime.PERSPECTIVE_CALIBRATED)
        assert validate_general_position(ds) == []

    def test_collinear_triple_flagged(self):
        # labels picked so the first three sorted labels are fine but the
        # triple (a, c, d) is collinear
        scene = SceneSpec(
            {"a": vec3(0, 0, 3), "b": vec3(0, 1, 3), "c": vec3(0.5, 0, 3), "d": vec3(1.0, 0, 3)}
        )
        ds = render(
            scene,
            MotionScript(motions=[RigidMotion.identity()]),
            Regime.PERSPECTIVE_CALIBRATED,
        )
        warnings = validate_general_position(ds)
        assert any("collinear" in w for w in warnings)

    def test_duplicate_projection_flagged(self):
        scene = SceneSpec(
            {"a": vec3(0, 0, 2), "b": vec3(1, 0, 2), "c": vec3(0, 1, 2), "d": vec3(0, 0, 4)}
        )
        ds = render(
            scene,
            MotionScript(motions=[RigidMotion.identity()]),
            Regime.PERSPECTIVE_CALIBRATED,
        )
        warnings = validate_general_position(ds)
        assert any("project together" in w for w in warnings)

    def test_curve_along_epipolar_plane_flagged(self):
        # the second camera sits 1.5 along +x, so the baseline is the x axis
        # and the run of samples with constant (y, z) lies in one epipolar
        # plane; the hook leaves it
        run = np.stack(
            [np.linspace(-0.3, 0.3, 20), np.full(20, 0.2), np.full(20, 3.0)], axis=1
        )
        hook = np.stack(
            [np.full(10, 0.3), np.linspace(0.25, 0.7, 10), np.full(10, 3.0)], axis=1
        )
        samples = np.concatenate([run, hook])
        scene = SceneSpec(
            {"a": samples[0], "b": samples[-1], "c": vec3(0, -0.5, 3.5)},
            [CurveSpec("run", samples, ("a", "b"))],
        )
        script = MotionScript(
            motions=[RigidMotion.identity(), RigidMotion(Rotation.identity(), vec3(-1.5, 0, 0))]
        )
        ds = render(scene, script, Regime.PERSPECTIVE_CALIBRATED)
        warnings = validate_general_position(ds)
        assert "frame 2: curve 'run' near epipolar tangency at sample 0" in warnings


class TestSpecValidation:
    def test_collinear_first_three_labels_rejected(self):
        with pytest.raises(InputError, match="collinear"):
            SceneSpec({"a": vec3(0, 0, 0), "b": vec3(1, 0, 0), "c": vec3(2, 0, 0)})

    def test_script_first_motion_must_be_identity(self):
        rot = Rotation.from_axis_angle(vec3(0, 0, 1), 0.3)
        with pytest.raises(InputError, match="identity"):
            MotionScript(motions=[RigidMotion(rot, vec3(0, 0, 0))])

    def test_frames_share_labels(self):
        ds = make_dataset(33)
        frames = list(ds.frames)
        bad = dict(frames[1].points)
        bad.pop(sorted(bad)[0])
        from multiframe.scene import FrameObs

        frames[1] = FrameObs(frames[1].id, bad, frames[1].curves, None)
        with pytest.raises(InputError, match="label set"):
            MultiframeDataset(ds.regime, frames, ds.truth)

    def test_truth_poses_match_object_motion(self):
        # observing the moved object equals observing with the inverse-moved camera
        ds = make_dataset(34, Regime.PERSPECTIVE_CALIBRATED)
        for i, f in enumerate(ds.frames):
            pose = truth_poses(ds, i)
            for lab in ds.labels:
                assert np.allclose(
                    project(ds.truth.points3d[lab], pose), f.points[lab], atol=1e-10
                )
