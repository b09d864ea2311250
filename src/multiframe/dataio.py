"""Dataset (de)serialization: one UTF-8 JSON document per dataset.

Numbers are written as decimals with 17 significant digits, which
round-trips IEEE doubles exactly; key order is fixed, so identical
datasets serialize to identical bytes.  Reading accepts any JSON layout
of the documented schema.

Top-level keys: ``regime``, ``frames`` (each with ``id``, ``points``,
``curves``, optional ``epipoles``), optional ``truth`` (``points3d`` plus
``motions`` with row-major rotations, or ``poses``; optional ``curves3d``)
and optional ``noise`` metadata.

A sample list (``frames[*].curves[*].samples``, ``truth.curves3d[*].samples``)
and the values of a labeled-point object (``frames[*].points``,
``frames[*].epipoles``, ``truth.points3d``) are converted to one array and
checked whole: ``dim``-vectors with finite entries.  Only a list or object
that fails the check is walked row by row, to name the first bad row
(``frames[0].curves[0].samples[3]: non-numeric entry``,
``frames[0].points['a']: non-finite entry``).  Entries are parsed as
``float()`` parses them, so numeric strings and booleans are accepted.
Every malformed input raises :class:`ParseError` naming its location.
"""

from __future__ import annotations

import json

import numpy as np

from .dof import Regime
from .errors import ParseError
from .geometry import CameraPose, RigidMotion, Rotation
from .scene import FrameObs, MultiframeDataset, NoiseSpec, TruthBlock


def _fmt(x: float) -> str:
    if not np.isfinite(x):
        raise ParseError("non-finite number cannot be serialized")
    out = format(float(x), ".17g")
    # JSON requires a leading digit arrangement that float() already gives
    return out


def _fmt_vec(v) -> str:
    return "[" + ", ".join(_fmt(x) for x in np.asarray(v, dtype=float).ravel()) + "]"


def _fmt_mat_rows(m) -> str:
    return _fmt_vec(np.asarray(m, dtype=float).reshape(-1))


def _fmt_samples(samples) -> str:
    return "[" + ", ".join(_fmt_vec(row) for row in np.asarray(samples, dtype=float)) + "]"


def write_dataset(dataset: MultiframeDataset) -> bytes:
    """Serialize losslessly with stable field ordering."""
    out: list[str] = []
    out.append("{")
    out.append(f'  "regime": {json.dumps(dataset.regime.value)},')
    out.append('  "frames": [')
    for fi, f in enumerate(dataset.frames):
        out.append("    {")
        out.append(f'      "id": {int(f.id)},')
        pts = ", ".join(
            f"{json.dumps(lab)}: {_fmt_vec(f.points[lab])}" for lab in sorted(f.points)
        )
        comma = "," if (f.curves or f.epipoles) else ""
        out.append(f'      "points": {{{pts}}}{comma}')
        if f.curves:
            rows = []
            for c in f.curves:
                ends = (
                    f', "endpoints": {json.dumps(list(c["endpoints"]))}'
                    if c.get("endpoints")
                    else ""
                )
                rows.append(
                    f'{{"id": {json.dumps(c["id"])}, "samples": {_fmt_samples(c["samples"])}{ends}}}'
                )
            comma = "," if f.epipoles else ""
            out.append(f'      "curves": [{", ".join(rows)}]{comma}')
        if f.epipoles:
            epi = ", ".join(
                f'"{j}": {_fmt_vec(f.epipoles[j])}' for j in sorted(f.epipoles)
            )
            out.append(f'      "epipoles": {{{epi}}}')
        out.append("    }" + ("," if fi < len(dataset.frames) - 1 else ""))
    tail = "," if (dataset.truth is not None or dataset.noise is not None) else ""
    out.append("  ]" + tail)
    if dataset.truth is not None:
        t = dataset.truth
        out.append('  "truth": {')
        pts = ", ".join(
            f"{json.dumps(lab)}: {_fmt_vec(t.points3d[lab])}" for lab in sorted(t.points3d)
        )
        more = t.motions is not None or t.poses is not None or t.curves3d
        out.append(f'    "points3d": {{{pts}}}{"," if more else ""}')
        if t.motions is not None:
            rows = [
                f'{{"rotation": {_fmt_mat_rows(m.rotation.matrix)}, '
                f'"translation": {_fmt_vec(m.translation)}}}'
                for m in t.motions
            ]
            out.append(f'    "motions": [{", ".join(rows)}]' + ("," if t.curves3d else ""))
        if t.poses is not None:
            rows = []
            for p in t.poses:
                focal = "null" if p.focal is None else _fmt_vec(p.focal)
                rows.append(
                    f'{{"origin": {_fmt_vec(p.origin)}, "basis_u": {_fmt_vec(p.basis_u)}, '
                    f'"basis_v": {_fmt_vec(p.basis_v)}, "focal": {focal}}}'
                )
            out.append(f'    "poses": [{", ".join(rows)}]' + ("," if t.curves3d else ""))
        if t.curves3d:
            rows = [
                f'{{"id": {json.dumps(c["id"])}, "samples": {_fmt_samples(c["samples"])}}}'
                for c in t.curves3d
            ]
            out.append(f'    "curves3d": [{", ".join(rows)}]')
        out.append("  }" + ("," if dataset.noise is not None else ""))
    if dataset.noise is not None:
        out.append(
            f'  "noise": {{"sigma": {_fmt(dataset.noise.sigma)}, '
            f'"seed": {int(dataset.noise.seed)}}}'
        )
    out.append("}")
    return ("\n".join(out) + "\n").encode("utf-8")


def read_dataset(data: bytes | str) -> MultiframeDataset:
    """Parse a serialized dataset; malformed input raises :class:`ParseError`."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    try:
        regime = Regime(doc["regime"])
    except KeyError:
        raise ParseError("missing top-level key 'regime'")
    except ValueError:
        raise ParseError(f"unknown regime tag {doc.get('regime')!r}")
    raw_frames = doc.get("frames")
    if not isinstance(raw_frames, list) or not raw_frames:
        raise ParseError("'frames' must be a non-empty array")
    frames = []
    for k, rf in enumerate(raw_frames):
        where = f"frames[{k}]"
        _object(rf, where, "id", "points")
        pts = _parse_labeled(rf["points"], 2, f"{where}.points")
        curves = []
        for ci, rc in enumerate(_list(rf.get("curves") or [], f"{where}.curves")):
            cw = f"{where}.curves[{ci}]"
            _object(rc, cw, "id", "samples")
            entry = {"id": rc["id"], "samples": _parse_rows(rc["samples"], 2, f"{cw}.samples")}
            if rc.get("endpoints"):
                entry["endpoints"] = _list(rc["endpoints"], f"{cw}.endpoints")[:]
            curves.append(entry)
        epipoles = None
        if rf.get("epipoles"):
            raw = _object(rf["epipoles"], f"{where}.epipoles")
            rows = _finite_rows(list(raw.values()), 2)
            epipoles = {}
            for i, (j, uv) in enumerate(raw.items()):
                try:
                    jj = int(j)
                except ValueError:
                    raise ParseError(f"{where}.epipoles: frame id {j!r} is not an integer")
                epipoles[jj] = (
                    rows[i] if rows is not None else _parse_vec(uv, 2, f"{where}.epipoles[{j}]")
                )
        frames.append(FrameObs(_int(rf["id"], f"{where}.id"), pts, curves, epipoles))
    truth = None
    if "truth" in doc and doc["truth"] is not None:
        truth = _parse_truth(doc["truth"])
    noise = None
    if "noise" in doc and doc["noise"] is not None:
        n = _object(doc["noise"], "noise", "sigma")
        noise = NoiseSpec(_float(n["sigma"], "noise.sigma"), _int(n.get("seed", 0), "noise.seed"))
    return MultiframeDataset(regime, frames, truth, noise)


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


def _int(x, where: str) -> int:
    try:
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


def _finite_rows(rows: list, dim: int) -> np.ndarray | None:
    """``rows`` as one ``(n, dim)`` array of finite floats, or None if any row fails.

    ``[]`` gives shape ``(0,)``.  A caller that gets None walks the rows
    through :func:`_parse_vec`, which names the first bad one: numpy and
    float() parse entries alike, so that walk raises, and should some
    entry parse under float() only, the walk's result is the answer.
    """
    try:
        arr = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    if (arr.shape == (len(rows), dim) or not rows) and np.isfinite(arr).all():
        return arr
    return None


def _parse_rows(rows, dim: int, where: str) -> np.ndarray:
    """A list of ``dim``-vectors as one ``(n, dim)`` array; ``[]`` gives shape ``(0,)``."""
    if not isinstance(rows, list):
        raise ParseError(f"{where}: expected a list of {dim}-vectors")
    arr = _finite_rows(rows, dim)
    if arr is None:
        return np.array([_parse_vec(r, dim, f"{where}[{i}]") for i, r in enumerate(rows)])
    return arr


def _parse_labeled(v, dim: int, where: str) -> dict[str, np.ndarray]:
    """A JSON object of ``dim``-vectors as a dict of rows of one array, keys in order."""
    obj = _object(v, where)
    arr = _finite_rows(list(obj.values()), dim)
    if arr is None:
        return {lab: _parse_vec(x, dim, f"{where}[{lab!r}]") for lab, x in obj.items()}
    return dict(zip(obj, arr))


def _parse_truth(raw) -> TruthBlock:
    if not isinstance(raw, dict) or "points3d" not in raw:
        raise ParseError("'truth' must be an object with 'points3d'")
    pts = _parse_labeled(raw["points3d"], 3, "truth.points3d")
    motions = None
    if raw.get("motions") is not None:
        motions = []
        for i, rm in enumerate(_list(raw["motions"], "truth.motions")):
            where = f"truth.motions[{i}]"
            _object(rm, where, "rotation", "translation")
            mat = _parse_vec(rm["rotation"], 9, f"{where}.rotation")
            motions.append(
                RigidMotion(
                    Rotation(mat.reshape(3, 3)),
                    _parse_vec(rm["translation"], 3, f"{where}.translation"),
                )
            )
    poses = None
    if raw.get("poses") is not None:
        poses = []
        for i, rp in enumerate(_list(raw["poses"], "truth.poses")):
            where = f"truth.poses[{i}]"
            _object(rp, where, "origin", "basis_u", "basis_v")
            focal = None
            if rp.get("focal") is not None:
                focal = _parse_vec(rp["focal"], 3, f"{where}.focal")
            poses.append(
                CameraPose(
                    _parse_vec(rp["origin"], 3, f"{where}.origin"),
                    _parse_vec(rp["basis_u"], 3, f"{where}.basis_u"),
                    _parse_vec(rp["basis_v"], 3, f"{where}.basis_v"),
                    focal,
                )
            )
    curves3d = None
    if raw.get("curves3d"):
        curves3d = []
        for ci, rc in enumerate(_list(raw["curves3d"], "truth.curves3d")):
            where = f"truth.curves3d[{ci}]"
            _object(rc, where, "id", "samples")
            curves3d.append(
                {"id": rc["id"], "samples": _parse_rows(rc["samples"], 3, f"{where}.samples")}
            )
    return TruthBlock(pts, motions, poses, curves3d)
