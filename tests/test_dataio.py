import copy
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multiframe import dataio
from multiframe.dataio import _parse_vec, read_dataset, write_dataset
from multiframe.dof import Regime
from multiframe.errors import InputError, ParseError
from multiframe.persp2f import two_frame_reconstruct
from multiframe.geometry import RigidMotion
from multiframe.scene import (
    FrameObs,
    MultiframeDataset,
    NoiseSpec,
    TruthBlock,
    add_noise,
    random_arc_scene,
    random_cloud_scene,
    random_motion_script,
    random_triangle_scene,
    render,
)

BASE = {
    "regime": "perspective_calibrated",
    "frames": [
        {
            "id": 0,
            "points": {"a": [0.125, -0.5]},
            "curves": [
                {
                    "id": "arc",
                    "samples": [[0.0, 0.0], [0.1, 0.0], [0.2, 0.1], [0.3, 0.3], [0.4, 0.6]],
                }
            ],
        }
    ],
    "truth": {
        "points3d": {"a": [0.25, -1.0, 2.0]},
        "motions": [{"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0, 0, 0]}],
        "curves3d": [
            {"id": "arc", "samples": [[0.0, 0.0, 2.0], [0.2, 0.0, 2.0], [0.4, 0.2, 2.0]]}
        ],
    },
    "noise": {"sigma": 0.0, "seed": 1},
}

# a JSON number literal no double holds; ``dumps`` writes the placeholder
# string, which is then replaced by the bare literal
HUGE_FLOAT = "1e400"
HUGE_INT = "1" + "0" * 400


def dumps(doc, literal=None) -> bytes:
    text = json.dumps(doc)
    if literal is not None:
        text = text.replace('"@LITERAL@"', literal)
    return text.encode()


DELETE = object()


def edited(path, value):
    """A copy of ``BASE`` with the entry at ``path`` (keys and indices) set to ``value``."""
    doc = copy.deepcopy(BASE)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc

SAMPLE = ("frames", 0, "curves", 0, "samples")
SAMPLE3 = ("truth", "curves3d", 0, "samples")
CURVE_ID = ("frames", 0, "curves", 0, "id")
ENDPOINTS = ("frames", 0, "curves", 0, "endpoints")


def parse_error_of(blob) -> str:
    with pytest.raises(ParseError) as info:
        read_dataset(blob)
    return str(info.value)


def parse_error(doc, literal=None) -> str:
    return parse_error_of(dumps(doc, literal))


def padded(doc, path, length):
    """``doc`` with the list at ``path`` padded to ``length`` rows by copies of its last."""
    node = doc
    for key in path:
        node = node[key]
    node.extend(copy.deepcopy(node[-1]) for _ in range(length - len(node)))
    return doc


class TestSampleErrors:
    """Each bad sample is named by its row, exactly as the row-by-row parser names it."""

    BAD_2 = [
        (["x", 0.9], "non-numeric entry"),
        ([None, 0.9], "non-numeric entry"),
        ([[0.5], 0.9], "non-numeric entry"),
        (None, "expected a 2-vector"),
        ([0.5], "expected a 2-vector"),
        ([0.5, 0.9, 1.0], "expected a 2-vector"),
        ({"u": 0.5, "v": 0.9}, "expected a 2-vector"),
        ([float("nan"), 0.9], "non-finite entry"),
        ([float("inf"), 0.9], "non-finite entry"),
        (["nan", 0.9], "non-finite entry"),
        # rows np.fromiter would read as two numbers or refuse: np.array and the walk name them
        ("12", "expected a 2-vector"),
        ({"1": 0.5, "2": 0.9}, "expected a 2-vector"),
        ([[0.5, 0.9], 0.9], "non-numeric entry"),
        ([0.5, [0.9]], "non-numeric entry"),
    ]
    BAD_3 = [
        ([0.0, 1.0], "expected a 3-vector"),
        ([0.0, 1.0, 2.0, 3.0], "expected a 3-vector"),
        ([0.0, "y", 2.0], "non-numeric entry"),
        ([0.0, 1.0, float("-inf")], "non-finite entry"),
        ("123", "expected a 3-vector"),
        ([0.0, [1.0], 2.0], "non-numeric entry"),
    ]
    LONG = 2 * dataio._FROMITER_ROWS  # a list np.fromiter converts when every row is good

    @pytest.mark.parametrize("row, message", BAD_2)
    def test_bad_curve_sample(self, row, message):
        doc = edited((*SAMPLE, 3), row)
        assert parse_error(doc) == f"frames[0].curves[0].samples[3]: {message}"

    @pytest.mark.parametrize("row, message", BAD_2)
    def test_bad_curve_sample_in_long_list(self, row, message):
        doc = padded(edited((*SAMPLE, 3), row), SAMPLE, self.LONG)
        assert parse_error(doc) == f"frames[0].curves[0].samples[3]: {message}"

    def test_out_of_range_literal_is_non_finite(self):
        doc = edited((*SAMPLE, 3), [0.5, "@LITERAL@"])
        assert parse_error(doc, HUGE_FLOAT) == "frames[0].curves[0].samples[3]: non-finite entry"

    def test_first_bad_row_is_named(self):
        doc = edited((*SAMPLE, 1), ["x", 0.0])
        doc["frames"][0]["curves"][0]["samples"][4] = [0.0]
        assert parse_error(doc) == "frames[0].curves[0].samples[1]: non-numeric entry"

    @pytest.mark.parametrize("row, message", BAD_3)
    def test_bad_truth_curve_sample(self, row, message):
        doc = edited((*SAMPLE3, 2), row)
        assert parse_error(doc) == f"truth.curves3d[0].samples[2]: {message}"

    @pytest.mark.parametrize("row, message", BAD_3)
    def test_bad_truth_curve_sample_in_long_list(self, row, message):
        doc = padded(edited((*SAMPLE3, 2), row), SAMPLE3, self.LONG)
        assert parse_error(doc) == f"truth.curves3d[0].samples[2]: {message}"


class TestLabeledPointErrors:
    """Each bad labeled point is named by its label, exactly as the per-label parser names it."""

    BAD_2 = [
        (["x", 0.9], "non-numeric entry"),
        ([0.5], "expected a 2-vector"),
        ([float("nan"), 0.9], "non-finite entry"),
        ("12", "expected a 2-vector"),
        ([[0.5], 0.9], "non-numeric entry"),
    ]

    @pytest.mark.parametrize("value, message", BAD_2)
    def test_bad_point(self, value, message):
        doc = edited(("frames", 0, "points", "b"), value)
        assert parse_error(doc) == f"frames[0].points['b']: {message}"

    @pytest.mark.parametrize(
        "value, message",
        [
            ([0.0, "y", 2.0], "non-numeric entry"),
            ([0.0, 1.0], "expected a 3-vector"),
            ([0.0, 1.0, float("-inf")], "non-finite entry"),
        ],
    )
    def test_bad_truth_point(self, value, message):
        doc = edited(("truth", "points3d", "b"), value)
        assert parse_error(doc) == f"truth.points3d['b']: {message}"

    def test_first_bad_label_is_named(self):
        doc = edited(("frames", 0, "points", "b"), ["x", 0.0])
        doc["frames"][0]["points"]["c"] = [0.0]
        assert parse_error(doc) == "frames[0].points['b']: non-numeric entry"


def two_frames(points2):
    """``BASE`` with a second frame holding ``points2``."""
    doc = copy.deepcopy(BASE)
    doc["frames"][0]["points"] = {"a": [0.125, -0.5], "b": [0.5, 0.25]}
    doc["frames"].append({"id": 1, "points": points2})
    return doc


class TestLabelSet:
    """Every frame lists the first frame's labels, in any order."""

    def test_missing_label_names_frame_and_label(self):
        doc = two_frames({"a": [0.0, 0.0], "c": [1.0, 1.0]})
        assert parse_error(doc) == "frames[1].points: missing label 'b'"

    def test_extra_label_names_frame_and_label(self):
        doc = two_frames({"a": [0.0, 0.0], "b": [1.0, 1.0], "c": [2.0, 2.0]})
        assert parse_error(doc) == "frames[1].points: label 'c' is not in frames[0]"

    def test_key_order_does_not_matter(self):
        # frame 2 lists its keys reversed: the same labels, points and reconstruction
        scene = random_cloud_scene(5, n_points=10)
        script = random_motion_script(6, 2, Regime.PERSPECTIVE_CALIBRATED, scene)
        blob = write_dataset(render(scene, script, Regime.PERSPECTIVE_CALIBRATED))
        doc = json.loads(blob)
        doc["frames"][1]["points"] = dict(reversed(doc["frames"][1]["points"].items()))
        assert list(doc["frames"][1]["points"]) != list(doc["frames"][0]["points"])
        ds, ref = read_dataset(dumps(doc)), read_dataset(blob)
        assert ds.labels == ref.labels == tuple(sorted(ds.labels))
        assert same_bits(ds.points, ref.points)
        est, want = two_frame_reconstruct(ds), two_frame_reconstruct(ref)
        assert same_bits(est.rotation.matrix, want.rotation.matrix)
        assert same_bits(est.translation, want.translation)
        assert est.depths == want.depths


class TestSampleAcceptance:
    def test_numeric_strings_and_booleans(self):
        doc = edited((*SAMPLE, 1), ["0.25", True])
        doc["truth"]["curves3d"][0]["samples"][0] = [False, " 1.5 ", 2]
        ds = read_dataset(dumps(doc))
        samples = ds.frames[0].curves[0]["samples"]
        assert samples.dtype == np.float64 and samples.shape == (5, 2)
        assert samples[1].tolist() == [0.25, 1.0]
        assert ds.truth.curves3d[0]["samples"][0].tolist() == [0.0, 1.5, 2.0]

    def test_empty_sample_list(self):
        doc = edited(SAMPLE, [])
        doc["truth"]["curves3d"].append({"id": "empty", "samples": []})
        ds = read_dataset(dumps(doc))
        for samples in (ds.frames[0].curves[0]["samples"], ds.truth.curves3d[1]["samples"]):
            assert samples.dtype == np.float64 and samples.shape == (0,)

    def test_samples_are_float_arrays(self):
        ds = read_dataset(dumps(BASE))
        samples = ds.frames[0].curves[0]["samples"]
        assert samples.dtype == np.float64 and samples.flags.c_contiguous
        assert samples.tolist() == BASE["frames"][0]["curves"][0]["samples"]


def two_motions(rotation):
    """``BASE`` with a second frame, whose truth motion has ``rotation``."""
    doc = copy.deepcopy(BASE)
    doc["frames"].append({**doc["frames"][0], "id": 1})
    doc["truth"]["motions"].append({"rotation": rotation, "translation": [0.5, 0, 0]})
    return doc


class TestMalformedInput:
    """Malformed input raises ParseError naming its location, never another exception."""

    def test_samples_not_a_list(self):
        doc = edited(SAMPLE, 5)
        assert parse_error(doc) == "frames[0].curves[0].samples: expected a list of 2-vectors"

    def test_points_not_an_object(self):
        doc = edited(("frames", 0, "points"), [1, 2])
        assert parse_error(doc) == "frames[0].points: expected an object"

    @pytest.mark.parametrize("value", ["x", 1.5, -0.5, 2.9])
    def test_frame_id_not_an_integer(self, value):
        doc = edited(("frames", 0, "id"), value)
        assert parse_error(doc) == "frames[0].id: expected an integer"

    def test_noise_seed_not_an_integer(self):
        doc = edited(("noise", "seed"), 2.9)
        assert parse_error(doc) == "noise.seed: expected an integer"

    @pytest.mark.parametrize("value, want", [(2.0, 2), ("3", 3), (True, 1), (-0.0, 0)])
    def test_integral_ids_and_seeds_accepted(self, value, want):
        doc = edited(("frames", 0, "id"), value)
        doc["noise"]["seed"] = value
        ds = read_dataset(dumps(doc))
        assert ds.frames[0].id == ds.noise.seed == want
        assert type(ds.frames[0].id) is type(ds.noise.seed) is int

    @pytest.mark.parametrize(
        "blob, reason",
        [
            (b"\xff", "invalid start byte"),
            # labels holding a Latin-1 byte
            (dumps(BASE).replace(b'"a"', b'"\xe9"'), "invalid continuation byte"),
            # the document cut inside a two-byte character
            (dumps(BASE)[:-1] + b"\xc3", "unexpected end of data"),
        ],
        ids=["start-byte", "label", "truncated"],
    )
    def test_invalid_utf8(self, blob, reason):
        offset = next(i for i, byte in enumerate(blob) if byte >= 0x80)
        assert parse_error_of(blob) == f"invalid UTF-8 at byte {offset}: {reason}"

    def test_noise_without_sigma(self):
        doc = edited(("noise",), {"seed": 1})
        assert parse_error(doc) == "noise: missing 'sigma'"

    def test_motion_without_rotation(self):
        doc = edited(("truth", "motions", 0, "rotation"), DELETE)
        assert parse_error(doc) == "truth.motions[0]: missing 'rotation'"

    def test_motion_count_must_match_frames(self):
        doc = two_motions([1, 0, 0, 0, 1, 0, 0, 0, 1])
        assert len(read_dataset(dumps(doc)).truth.motions) == 2
        del doc["truth"]["motions"][1]
        assert parse_error(doc) == "truth.motions: 1 motions for 2 frames"
        doc["truth"]["motions"] *= 3
        assert parse_error(doc) == "truth.motions: 3 motions for 2 frames"

    @pytest.mark.parametrize(
        "rotation, message",
        [
            ([1, 0, 0, 0, 1, 0, 0, 0, 1 + 1e-6], "rotation matrix columns are not orthonormal"),
            ([1, 0, 0, 0, 1, 0, 0, 0, -1], "rotation matrix determinant is not +1"),
        ],
    )
    def test_bad_rotation_named(self, rotation, message):
        assert parse_error(two_motions(rotation)) == f"truth.motions[1].rotation: {message}"

    def test_truth_curve_without_samples(self):
        doc = edited(("truth", "curves3d", 0, "samples"), DELETE)
        assert parse_error(doc) == "truth.curves3d[0]: missing 'samples'"

    @pytest.mark.parametrize(
        "path, value, where",
        [
            (CURVE_ID, ["arc"], "frames[0].curves[0].id: expected a string"),
            (CURVE_ID, 7, "frames[0].curves[0].id: expected a string"),
            (("truth", "curves3d", 0, "id"), None, "truth.curves3d[0].id: expected a string"),
            (ENDPOINTS, ["arc:start"], "frames[0].curves[0].endpoints: expected two labels"),
            (ENDPOINTS, ["a", "b", "c"], "frames[0].curves[0].endpoints: expected two labels"),
            (ENDPOINTS, ["a", 1], "frames[0].curves[0].endpoints: expected two labels"),
            (ENDPOINTS, "ab", "frames[0].curves[0].endpoints: expected a list"),
        ],
        ids=["list-id", "number-id", "null-truth-id", "one-label", "three", "number-label", "text"],
    )
    def test_bad_curve_id_or_endpoints(self, path, value, where):
        assert parse_error(edited(path, value)) == where

    @pytest.mark.parametrize("ends, want", [([], None), (["a", "b"], ["a", "b"])])
    def test_empty_or_two_endpoints_accepted(self, ends, want):
        curve = read_dataset(dumps(edited(ENDPOINTS, ends))).frames[0].curves[0]
        assert curve.get("endpoints") == want

    def test_non_numeric_rotation(self):
        doc = edited(("truth", "motions", 0, "rotation", 0), "a")
        assert parse_error(doc) == "truth.motions[0].rotation: non-numeric entry"

    @pytest.mark.parametrize(
        "path, where",
        [
            ((*SAMPLE, 2, 0), "frames[0].curves[0].samples[2]: non-finite entry"),
            (("frames", 0, "points", "a", 1), "frames[0].points['a']: non-finite entry"),
            (
                ("truth", "motions", 0, "rotation", 4),
                "truth.motions[0].rotation: non-finite entry",
            ),
            ((*SAMPLE3, 1, 2), "truth.curves3d[0].samples[1]: non-finite entry"),
            (("noise", "sigma"), "noise.sigma: non-finite entry"),
        ],
    )
    def test_huge_integer_literal(self, path, where):
        doc = edited(path, "@LITERAL@")
        assert parse_error(doc, HUGE_INT) == where


# entries that float() turns into a finite double, as JSON can carry them
finite = st.floats(allow_nan=False, allow_infinity=False)
entries = st.one_of(
    finite,
    st.integers(min_value=-(2**1000), max_value=2**1000),
    st.booleans(),
    finite.map(repr),
)


def row_lists(dim):
    # lengths spread over both conversions: np.array below _FROMITER_ROWS, np.fromiter above
    row = st.lists(entries, min_size=dim, max_size=dim)
    return st.integers(0, 2 * dataio._FROMITER_ROWS).flatmap(
        lambda n: st.lists(row, min_size=n, max_size=n)
    )


def row_by_row(rows, dim):
    return np.array([_parse_vec(r, dim, "") for r in rows])


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def labeled(dim):
    return st.dictionaries(
        st.text(max_size=3),
        st.lists(entries, min_size=dim, max_size=dim),
        max_size=12,
    )


def per_label(points, dim):
    return {lab: _parse_vec(v, dim, "") for lab, v in points.items()}


def same_points(got, want):
    return list(got) == list(want) and all(same_bits(got[k], want[k]) for k in want)


class TestProperties:
    @settings(max_examples=60)
    @given(rows=row_lists(2))
    def test_curve_samples_equal_row_by_row_parse(self, rows):
        ds = read_dataset(dumps(edited(SAMPLE, rows)))
        assert same_bits(ds.frames[0].curves[0]["samples"], row_by_row(rows, 2))

    @settings(max_examples=60)
    @given(rows=row_lists(3))
    def test_truth_curve_samples_equal_row_by_row_parse(self, rows):
        ds = read_dataset(dumps(edited(SAMPLE3, rows)))
        assert same_bits(ds.truth.curves3d[0]["samples"], row_by_row(rows, 3))

    @settings(max_examples=15)
    @given(
        seed=st.integers(min_value=1, max_value=2**31 - 2),
        sigma=st.sampled_from([0.0, 1e-5]),
        arc=st.booleans(),
    )
    def test_write_read_round_trip(self, seed, sigma, arc):
        if arc:
            scene = random_arc_scene(seed, n_samples=30)
        else:
            scene = random_cloud_scene(seed, n_points=8)
        script = random_motion_script(seed + 1, 2, Regime.PERSPECTIVE_CALIBRATED, scene)
        ds = render(scene, script, Regime.PERSPECTIVE_CALIBRATED)
        ds = add_noise(ds, NoiseSpec(sigma, seed))
        blob = write_dataset(ds)
        assert write_dataset(read_dataset(blob)) == blob

    @settings(max_examples=60)
    @given(points=labeled(2), points3d=labeled(3))
    def test_labeled_points_equal_per_label_parse(self, points, points3d):
        doc = edited(("frames", 0, "points"), points)
        doc["truth"]["points3d"] = points3d
        ds = read_dataset(dumps(doc))
        # frame rows follow the sorted labels
        want = per_label(points, 2)
        assert ds.points.shape == (1, len(points), 2)
        assert same_points(dict(zip(ds.labels, ds.points[0])), {k: want[k] for k in sorted(want)})
        assert same_points(ds.truth.points3d, per_label(points3d, 3))


def stdlib_parser_refused():
    """Within it the stdlib ``json.loads`` raises, so a read must decode with orjson."""
    return mock.patch.object(dataio.json, "loads", side_effect=AssertionError("stdlib path"))


def noisy_blob(scene, regime, frames):
    script = random_motion_script(7, frames, regime, scene)
    return write_dataset(add_noise(render(scene, script, regime), NoiseSpec(1e-5, 8)))


MAX = sys.float_info.max
TINY = 5e-324  # the smallest subnormal
EDGE_DOUBLES = [0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308, MAX, -MAX, 0.1, 1 / 3]


class TestDecodePaths:
    """orjson decodes what the writer writes; the stdlib parser reads what orjson refuses."""

    @pytest.mark.parametrize(
        "blob",
        [
            noisy_blob(random_arc_scene(5, n_samples=50), Regime.PERSPECTIVE_CALIBRATED, 2),
            noisy_blob(random_triangle_scene(6), Regime.ORTHOGRAPHIC, 3),
        ],
        ids=["arc", "triangle"],
    )
    def test_writer_output_never_reaches_stdlib_parser(self, blob):
        with stdlib_parser_refused():
            ds = read_dataset(blob)
        assert write_dataset(ds) == blob

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "-Infinity", HUGE_FLOAT, HUGE_INT],
        ids=["NaN", "Infinity", "-Infinity", "1e400", "10**400"],
    )
    def test_refused_literal_reaches_located_check(self, literal):
        blob = dumps(edited((*SAMPLE, 2, 0), "@LITERAL@"), literal)
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(blob)
        assert parse_error_of(blob) == "frames[0].curves[0].samples[2]: non-finite entry"

    def test_lone_surrogate_label_is_read(self):
        blob = dumps(edited(("frames", 0, "points"), {"\ud800": [0.5, 0.25]}))
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(blob)
        ds = read_dataset(blob)
        assert ds.labels == ("\ud800",) and ds.points.tolist() == [[[0.5, 0.25]]]

    @settings(max_examples=60)
    @given(
        samples=arrays(
            np.float64,
            st.tuples(st.integers(1, 20), st.just(2)),
            elements=st.one_of(st.sampled_from(EDGE_DOUBLES), finite),
        )
    )
    def test_finite_samples_round_trip_bit_for_bit(self, samples):
        frame = FrameObs(0, [{"id": "c", "samples": samples}])
        ds = MultiframeDataset(Regime.ORTHOGRAPHIC, ("a",), np.zeros((1, 1, 2)), [frame])
        with stdlib_parser_refused():
            back = read_dataset(write_dataset(ds))
        assert same_bits(back.frames[0].curves[0]["samples"], samples)


class TestWriteLabels:
    """Labels are written as ``orjson.dumps`` writes them, whatever the numbers beside them."""

    @pytest.mark.parametrize("label", ["-0,", "-0]", "[-0, -0]", "%s", "%.17g", "x\ny", "\u00e9"])
    def test_label_round_trips_byte_for_byte(self, label):
        labels = tuple(sorted([label, "b"]))
        points = np.array([[[-0.0, 0.5], [0.0, -0.0]], [[1.0, -0.0], [-0.0, -0.0]]])
        xyz = {label: np.array([-0.0, 1.0, 0.0]), "b": np.array([2.0, -0.0, -0.0])}
        truth = TruthBlock(
            {lab: xyz[lab] for lab in labels}, [RigidMotion.identity(), RigidMotion.identity()]
        )
        frames = [FrameObs(0, []), FrameObs(1, [])]
        ds = MultiframeDataset(Regime.ORTHOGRAPHIC, labels, points, frames, truth)
        blob = write_dataset(ds)
        key = orjson.dumps(label) + b":["
        assert blob.count(key) == 3  # both frames and the truth
        back = read_dataset(blob)
        assert back.labels == labels
        assert same_bits(back.points, points)  # every -0.0 written as -0.0
        assert same_points(back.truth.points3d, truth.points3d)
        assert write_dataset(back) == blob

    @pytest.mark.parametrize(
        "labels, error, cause",
        [
            ((1, 2), InputError, "label 1 is int, not str"),
            ((np.str_("a"),), InputError, "is str_, not str"),
            (("\ud800",), ParseError, "cannot be serialized: .*surrogates not allowed"),
        ],
        ids=["integers", "numpy-str", "lone-surrogate"],
    )
    def test_unwritable_label_is_a_parse_error(self, labels, error, cause):
        """A label that is not exactly a ``str`` is refused where the dataset is made;
        a ``str`` that orjson cannot encode, where it is written."""
        points = np.zeros((1, len(labels), 2))

        def make():
            return MultiframeDataset(Regime.ORTHOGRAPHIC, labels, points, [FrameObs(0, [])])

        if error is InputError:
            with pytest.raises(InputError, match=cause):
                make()
        else:
            ds = make()
            with pytest.raises(ParseError, match=cause):
                write_dataset(ds)

    def test_no_labels(self):
        ds = MultiframeDataset(
            Regime.ORTHOGRAPHIC, (), np.zeros((2, 0, 2)), [FrameObs(0, []), FrameObs(1, [])],
            TruthBlock({}),
        )
        back = read_dataset(write_dataset(ds))
        assert back.labels == () and back.points.shape == (2, 0, 2) and back.truth.points3d == {}


def test_written_bytes_hold_no_spare_buffer():
    """A set-up keeps every dataset it writes, so spare capacity would be peak memory."""
    arc = random_arc_scene(5, n_samples=50)
    ds = read_dataset(noisy_blob(arc, Regime.PERSPECTIVE_CALIBRATED, 2))
    tracemalloc.start()
    try:
        blob = write_dataset(ds)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < len(blob) + 1024, f"{held} bytes held for a {len(blob)}-byte document"


def orjson_refused():
    """Within it ``orjson.loads`` raises, so a read that reaches either parser fails."""
    return mock.patch.object(dataio.orjson, "loads", side_effect=AssertionError("orjson"))


def with_extra(literal: str) -> bytes:
    """``BASE`` with one more top-level key, ``extra``, holding the JSON text ``literal``."""
    return dumps(edited(("extra",), "@LITERAL@"), literal)


class TestNesting:
    """A document nested deeper than ``_MAX_DEPTH`` is refused before either parser runs."""

    def test_depth_at_bound_is_decoded(self):
        depth = dataio._MAX_DEPTH - 1  # under the top-level object
        with stdlib_parser_refused():
            ds = read_dataset(with_extra("[" * depth + "]" * depth))
        assert ds.labels == ("a",)

    @pytest.mark.parametrize("as_text", [False, True], ids=["bytes", "str"])
    def test_depth_over_bound_is_refused(self, as_text):
        depth = dataio._MAX_DEPTH
        blob = with_extra("[" * depth + "]" * depth)
        deepest = blob.index(b"[" * depth) + depth - 1
        with orjson_refused(), stdlib_parser_refused():
            message = parse_error_of(blob.decode() if as_text else blob)
        assert message == f"invalid JSON at byte {deepest}: nested deeper than {depth}"

    def test_brackets_in_strings_do_not_count(self):
        many = dataio._MAX_DEPTH + 1
        blob = with_extra(json.dumps(["[" * many, "{" * many, '\\"[' * many]))
        with stdlib_parser_refused():
            assert read_dataset(blob).labels == ("a",)

    @pytest.mark.parametrize(
        "level",
        ['["]]", ', '["]\\"]", ', '["\\\\", ', '["]\\\\\\"]", ', '{"}": '],
        ids=["closing", "escaped-quote", "escaped-backslash", "three-backslashes", "object-key"],
    )
    def test_closing_brackets_in_strings_do_not_hide_depth(self, level):
        depth = dataio._MAX_DEPTH
        closing = "]" if level.startswith("[") else "}"
        with orjson_refused(), stdlib_parser_refused():
            message = parse_error_of(with_extra(level * depth + "1" + closing * depth))
        assert message.endswith(f"nested deeper than {depth}")

    def test_stdlib_recursion_limit_is_a_parse_error(self):
        # orjson refuses the NaN; how deep the stdlib parser may recurse depends
        # on the interpreter, so its RecursionError is raised by hand
        blob = dumps(edited((*SAMPLE, 2, 0), "@LITERAL@"), "NaN")
        with mock.patch.object(dataio.json, "loads", side_effect=RecursionError):
            message = parse_error_of(blob)
        assert message == "invalid JSON: nested beyond the recursion limit"

    def test_orjson_crash_depth_is_refused(self):
        # 200,000 nested objects crash orjson 3.8.3 on an 8 MB stack, so the read
        # runs in its own interpreter
        code = (
            "from multiframe.dataio import read_dataset\n"
            "from multiframe.errors import ParseError\n"
            "try:\n"
            "    read_dataset(b'{\"a\":' * 200000 + b'1' + b'}' * 200000)\n"
            "except ParseError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(dataio.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == "invalid JSON at byte 5120: nested deeper than 1024\n"
