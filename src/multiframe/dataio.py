"""Dataset (de)serialization: one UTF-8 JSON document per dataset.

The writer builds the document as plain objects in a fixed key order and
encodes it with one ``orjson.dumps``: compact, on one line, with a
trailing newline.  Each number is the shortest decimal that reads back as
the same double (``0.1``, not ``0.10000000000000001``), ``-0.0`` included,
so every finite double round-trips and identical datasets serialize to
identical bytes.  Each array is checked finite first, as orjson would
write NaN and inf as ``null``; any string holding a lone surrogate raises
:class:`ParseError` too.  (A label that is not exactly a ``str``, a
``numpy.str_`` neither, never gets this far: ``MultiframeDataset`` refuses it
with :class:`InputError`.)  Reading accepts any JSON layout of the schema.

Top-level keys: ``regime`` (``orthographic`` or ``perspective_calibrated``),
``frames`` (each with ``id``, ``points`` and optional ``curves``), optional
``truth`` (``points3d``, optional ``motions``, one per frame, with row-major
rotations, optional ``curves3d``) and optional ``noise`` metadata.  A frame's
``points`` object maps each traced label to its image; every frame lists
the same labels, in any key order, and the writer sorts them.

Reading sorts the first frame's labels into the dataset's ``labels`` tuple
and converts every frame's ``points`` object, in that order, into the
``(k, n, 2)`` ``points`` array in one call.  A frame whose labels differ
from the first frame's raises ``frames[1].points: missing label 'b'`` (or
names the label it adds).  A sample list (``frames[*].curves[*].samples``,
``truth.curves3d[*].samples``), the values of a labeled-point object
(``frames[*].points``, ``truth.points3d``) and the rotations or
translations of ``truth.motions`` are converted to one array and
checked whole: ``dim``-vectors with finite entries.  Only a list or object
that fails the check is walked row by row, in file order, to name the
first bad row (``frames[0].curves[0].samples[3]: non-numeric entry``,
``frames[0].points['a']: non-finite entry``, ``truth.motions[1].rotation:
rotation matrix determinant is not +1``).  Entries are parsed as
``float()`` parses them, so numeric strings and booleans are accepted.
Every malformed input, and a ``perspective_uncalibrated`` regime, which no
solver reads, raises :class:`ParseError` naming its location.  A frame
``id`` or noise ``seed`` must be integral: ``2.0`` and ``"2"`` read as 2.
A curve ``id`` must be a string, and a curve's ``endpoints``, when present
and non-empty, exactly two string labels.

The document is decoded by ``orjson``, bytes as given.  Only a document it
refuses is decoded again by the stdlib ``json``, which accepts the ``NaN``
and ``Infinity`` literals, literals beyond the double range and lone
surrogates, so that such an entry reaches the located checks (``non-finite
entry``), and which names the line and column of invalid JSON or the byte
of invalid UTF-8.  orjson reads an integer literal beyond 64 bits as the
nearest double: entries become doubles anyway, but a frame ``id`` or noise
``seed`` that large reads rounded.  orjson 3.8 recurses without a bound, and
deep enough nesting crashes the interpreter, so a document with more than
``_MAX_DEPTH`` (1,024) ``[`` and ``{`` is first measured, skipping strings,
and one nested deeper is refused before either parser sees it.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np
import orjson

from .dof import Regime
from .errors import InputError, ParseError
from .geometry import RigidMotion, Rotation
from .scene import FrameObs, MultiframeDataset, NoiseSpec, TruthBlock


def _finite(a) -> np.ndarray:
    """``a`` as a C-contiguous float array, as orjson writes no other, checked finite."""
    a = np.ascontiguousarray(a, dtype=float)
    if not np.isfinite(a).all():  # orjson would write NaN and inf as null
        raise ParseError("non-finite number cannot be serialized")
    return a


def write_dataset(dataset: MultiframeDataset) -> bytes:
    """Serialize losslessly with stable field ordering."""
    frames = []
    for f, pts in zip(dataset.frames, _finite(dataset.points).tolist()):
        frame = {"id": int(f.id), "points": dict(zip(dataset.labels, pts))}
        if f.curves:
            frame["curves"] = [_curve_doc(c) for c in f.curves]
        frames.append(frame)
    doc = {"regime": dataset.regime.value, "frames": frames}
    if dataset.truth is not None:
        t = dataset.truth
        labels = sorted(t.points3d)
        xyz = _finite([t.points3d[lab] for lab in labels]).tolist()
        truth = doc["truth"] = {"points3d": dict(zip(labels, xyz))}
        if t.motions is not None:
            rows = _finite([[*m.rotation.matrix.ravel(), *m.translation] for m in t.motions])
            truth["motions"] = [{"rotation": r[:9], "translation": r[9:]} for r in rows.tolist()]
        if t.curves3d:
            truth["curves3d"] = [_curve_doc(c) for c in t.curves3d]
    if dataset.noise is not None:
        doc["noise"] = {"sigma": float(dataset.noise.sigma), "seed": int(dataset.noise.seed)}
    # orjson 3.8 returns its growth buffer, up to four times the document's length;
    # the concatenation keeps an exact-size copy
    try:
        return orjson.dumps(doc, option=orjson.OPT_SERIALIZE_NUMPY) + b"\n"
    except orjson.JSONEncodeError as exc:  # a non-string label, a lone surrogate
        raise ParseError(f"dataset cannot be serialized: {exc}") from None


def _curve_doc(c: dict) -> dict:
    """A curve's JSON object: ``id``, ``samples`` and its ``endpoints``, if any."""
    doc = {"id": c["id"], "samples": _finite(c["samples"])}
    if c.get("endpoints"):
        doc["endpoints"] = list(c["endpoints"])
    return doc


_MAX_DEPTH = 1024  # far above the schema's 5 levels, far below where orjson 3.8 crashes


def _too_deep(text: np.ndarray) -> int | None:
    """The offset of the first bracket nested deeper than ``_MAX_DEPTH`` in the JSON
    bytes ``text``, or None; brackets inside strings do not count."""
    folded = text | 32  # "[" -> "{" and "]" -> "}"
    if np.count_nonzero(folded == ord("{")) <= _MAX_DEPTH:  # the depth is at most this count
        return None
    quotes = np.flatnonzero(text == ord('"'))
    slash = np.flatnonzero(text == ord("\\"))
    if slash.size:  # a quote after an odd run of backslashes is escaped
        first = np.maximum.accumulate(np.where(np.diff(slash, prepend=-2) != 1, slash, 0))
        j = np.searchsorted(slash, quotes) - 1  # the run of backslashes each quote ends
        run = np.where((j >= 0) & (slash[j] == quotes - 1), quotes - first[j], 0)
        quotes = quotes[run % 2 == 0]
    at = np.flatnonzero((folded == ord("{")) | (folded == ord("}")))
    at = at[np.searchsorted(quotes, at) % 2 == 0]  # outside strings
    deeper = np.cumsum(np.where(folded[at] == ord("{"), 1, -1)) > _MAX_DEPTH
    return int(at[deeper.argmax()]) if deeper.any() else None


def read_dataset(data: bytes | str) -> MultiframeDataset:
    """Parse a serialized dataset; malformed input raises :class:`ParseError`."""
    raw = data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data
    at = _too_deep(np.frombuffer(raw, np.uint8))
    if at is not None:
        raise ParseError(f"invalid JSON at byte {at}: nested deeper than {_MAX_DEPTH}")
    try:
        doc = orjson.loads(data)
    except orjson.JSONDecodeError:  # the stdlib path: see the module docstring
        try:
            doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid UTF-8 at byte {exc.start}: {exc.reason}") from None
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
        except RecursionError:
            raise ParseError("invalid JSON: nested beyond the recursion limit") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    try:
        regime = Regime(doc["regime"])
    except KeyError:
        raise ParseError("missing top-level key 'regime'")
    except ValueError:
        raise ParseError(f"unknown regime tag {doc.get('regime')!r}")
    if regime is Regime.PERSPECTIVE_UNCALIBRATED:
        raise ParseError("regime 'perspective_uncalibrated' has no solver; datasets are not read")
    raw_frames = doc.get("frames")
    if not isinstance(raw_frames, list) or not raw_frames:
        raise ParseError("'frames' must be a non-empty array")
    labels = None
    rows = []  # each frame's points in label order, converted below as one array
    frames = []
    for k, rf in enumerate(raw_frames):
        where = f"frames[{k}]"
        _object(rf, where, "id", "points")
        obj = _object(rf["points"], f"{where}.points")
        if labels is None:
            labels = tuple(sorted(obj))
        elif obj.keys() != set(labels):
            _label_mismatch(obj, labels, f"{where}.points")
        rows.append([obj[lab] for lab in labels])
        curves = []
        for ci, rc in enumerate(_list(rf.get("curves") or [], f"{where}.curves")):
            cw = f"{where}.curves[{ci}]"
            entry = _curve(rc, 2, cw)
            if rc.get("endpoints"):
                ends = _list(rc["endpoints"], f"{cw}.endpoints")
                if len(ends) != 2 or not all(isinstance(e, str) for e in ends):
                    raise ParseError(f"{cw}.endpoints: expected two labels")
                entry["endpoints"] = ends[:]
            curves.append(entry)
        frames.append(FrameObs(_int(rf["id"], f"{where}.id"), curves))
    points = _finite_rows(rows, len(labels), 2)
    if points is None:  # walked frame by frame, to name the first bad point
        walk = enumerate(raw_frames)
        points = np.array(
            [_parse_labeled(rf["points"], labels, 2, f"frames[{k}].points") for k, rf in walk]
        )
    truth = None
    if "truth" in doc and doc["truth"] is not None:
        truth = _parse_truth(doc["truth"], len(frames))
    noise = None
    if "noise" in doc and doc["noise"] is not None:
        n = _object(doc["noise"], "noise", "sigma")
        noise = NoiseSpec(_float(n["sigma"], "noise.sigma"), _int(n.get("seed", 0), "noise.seed"))
    return MultiframeDataset(regime, labels, points, frames, truth, noise)


def _label_mismatch(obj: dict, labels: tuple, where: str):
    """Raise for a labeled-point object whose keys are not ``labels``."""
    missing = sorted(set(labels) - obj.keys())
    if missing:
        raise ParseError(f"{where}: missing label {missing[0]!r}")
    raise ParseError(f"{where}: label {sorted(obj.keys() - set(labels))[0]!r} is not in frames[0]")


def _object(v, where: str, *keys: str) -> dict:
    """``v`` as a JSON object holding every key in ``keys``."""
    if not isinstance(v, dict):
        raise ParseError(f"{where}: expected an object")
    for key in keys:
        if key not in v:
            raise ParseError(f"{where}: missing {key!r}")
    return v


def _list(v, where: str) -> list:
    if not isinstance(v, list):
        raise ParseError(f"{where}: expected a list")
    return v


def _curve(rc, dim: int, where: str) -> dict:
    """A curve object's string ``id`` and its ``samples`` as one ``(n, dim)`` array."""
    _object(rc, where, "id", "samples")
    if not isinstance(rc["id"], str):
        raise ParseError(f"{where}.id: expected a string")
    return {"id": rc["id"], "samples": _parse_rows(rc["samples"], dim, f"{where}.samples")}


def _int(x, where: str) -> int:
    try:
        if isinstance(x, float) and not x.is_integer():
            raise ValueError
        return int(x)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{where}: expected an integer") from None


def _float(x, where: str) -> float:
    try:
        return float(x)
    except (TypeError, ValueError):
        raise ParseError(f"{where}: non-numeric entry") from None
    except OverflowError:  # an integer literal beyond the double range
        raise ParseError(f"{where}: non-finite entry") from None


def _parse_vec(v, dim: int, where: str) -> np.ndarray:
    if not isinstance(v, (list, tuple)) or len(v) != dim:
        raise ParseError(f"{where}: expected a {dim}-vector")
    arr = np.array([_float(x, where) for x in v])
    if not np.isfinite(arr).all():
        raise ParseError(f"{where}: non-finite entry")
    return arr


# from about 20 rows of 2 or 3 entries on, np.fromiter converts a list of lists
# faster than np.array, its type and length checks included; below, slower
_FROMITER_ROWS = 24


def _finite_rows(rows: list, *shape: int) -> np.ndarray | None:
    """``rows`` as one ``(len(rows), *shape)`` array of finite floats, or None if any fails.

    ``[]`` gives shape ``(0,)``.  A list of at least ``_FROMITER_ROWS``
    ``list`` rows, each of length ``dim`` (``shape == (dim,)``), is read
    through ``np.fromiter``; any other list through ``np.array``.  A caller that gets None walks the rows
    through :func:`_parse_vec`, which names the first bad one: numpy and
    float() parse entries alike, so that walk raises, and should some entry
    parse under float() only, the walk's result is the answer.
    """
    # a string of the row length would pass to np.fromiter as a row of characters
    flat = (
        len(rows) >= _FROMITER_ROWS
        and len(shape) == 1
        and set(map(type, rows)) == {list}
        and set(map(len, rows)) == {*shape}
    )
    try:
        if flat:
            arr = np.fromiter(chain.from_iterable(rows), float, len(rows) * shape[0])
            arr = arr.reshape(len(rows), *shape)
        else:
            arr = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    if (arr.shape == (len(rows), *shape) or not rows) and np.isfinite(arr).all():
        return arr
    return None


def _parse_rows(rows, dim: int, where: str, field: str = "") -> np.ndarray:
    """A list of ``dim``-vectors as one ``(n, dim)`` array; ``[]`` gives shape ``(0,)``.

    Row ``i`` is named ``{where}[i]{field}``.
    """
    if not isinstance(rows, list):
        raise ParseError(f"{where}: expected a list of {dim}-vectors")
    arr = _finite_rows(rows, dim)
    if arr is None:
        return np.array([_parse_vec(r, dim, f"{where}[{i}]{field}") for i, r in enumerate(rows)])
    return arr


def _parse_labeled(obj: dict, labels, dim: int, where: str) -> np.ndarray:
    """The values of a JSON object of ``dim``-vectors as one ``(n, dim)`` array, rows in
    ``labels`` order; a bad value is named in the object's own key order."""
    arr = _finite_rows([obj[lab] for lab in labels], dim)
    if arr is None:
        rows = {lab: _parse_vec(x, dim, f"{where}[{lab!r}]") for lab, x in obj.items()}
        arr = np.array([rows[lab] for lab in labels])
    return arr.reshape(len(labels), dim)


def _parse_truth(raw, n_frames: int) -> TruthBlock:
    if not isinstance(raw, dict) or "points3d" not in raw:
        raise ParseError("'truth' must be an object with 'points3d'")
    obj = _object(raw["points3d"], "truth.points3d")
    pts = dict(zip(obj, _parse_labeled(obj, list(obj), 3, "truth.points3d")))
    motions = None
    if raw.get("motions") is not None:
        motions = _parse_motions(_list(raw["motions"], "truth.motions"), n_frames)
    curves3d = None
    if raw.get("curves3d"):
        curves3d = [
            _curve(rc, 3, f"truth.curves3d[{ci}]")
            for ci, rc in enumerate(_list(raw["curves3d"], "truth.curves3d"))
        ]
    return TruthBlock(pts, motions, curves3d)


def _parse_motions(raw: list, n_frames: int) -> list[RigidMotion]:
    """One motion per frame, with the rotations read as one ``(k, 9)`` array and the
    translations as one ``(k, 3)`` array; a rotation that ``Rotation`` refuses is named."""
    if len(raw) != n_frames:
        raise ParseError(f"truth.motions: {len(raw)} motions for {n_frames} frames")
    for i, rm in enumerate(raw):
        _object(rm, f"truth.motions[{i}]", "rotation", "translation")
    mats, trans = (
        _parse_rows([rm[key] for rm in raw], dim, "truth.motions", f".{key}")
        for key, dim in (("rotation", 9), ("translation", 3))
    )
    motions = []
    for i, (mat, t) in enumerate(zip(mats.reshape(-1, 3, 3), trans)):
        try:
            rot = Rotation(mat)
        except InputError as exc:
            raise ParseError(f"truth.motions[{i}].rotation: {exc}") from None
        motions.append(RigidMotion(rot, t))
    return motions
