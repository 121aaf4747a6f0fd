"""System-file and report serialization.

The native system format is JSON with explicit dimension counts:

    {
      "version": 1,
      "n_states": 6, "n_inputs": 1, "n_outputs": 1,
      "A": [[...], ...], "B": [[...], ...], "C": [[...]],
      "M": [ [[...], ...], ... ]
    }

Any matrix value may instead be a string naming a Matrix Market file,
resolved relative to the system file's directory.  Serialization writes
floats through their shortest round-tripping representation, so values
survive a parse/serialize cycle bit for bit.
"""

import json
import os

import numpy as np

from .errors import SchemaError
from .model import LqoSystem

FORMAT_VERSION = 1

_COUNT_FIELDS = ("n_states", "n_inputs", "n_outputs")

#: Entry types a matrix row may hold (``bool`` is excluded by exact match).
_NUMBER_TYPES = {int, float}


def _load_mm(path_value, base_dir, path):
    from scipy.io import mmread

    full = os.path.join(base_dir or ".", path_value)
    if not os.path.exists(full):
        raise SchemaError(f"{path}: Matrix Market file not found: {full}", field=path)
    try:
        mat = mmread(full)
    except ValueError as exc:
        raise SchemaError(
            f"{path}: not a readable Matrix Market file: {full}: {exc}", field=path
        ) from None
    if hasattr(mat, "todense"):
        mat = mat.todense()
    if np.iscomplexobj(mat):
        raise SchemaError(f"{path}: complex entries in Matrix Market file {full}", field=path)
    return np.atleast_2d(np.asarray(mat, dtype=float))


def _as_array(value, shape, path, base_dir):
    if isinstance(value, str):
        arr = _load_mm(value, base_dir, path)
        if arr.shape != shape:
            raise SchemaError(
                f"{path}: expected shape {shape}, file has {arr.shape}", field=path
            )
        return arr
    if not isinstance(value, list) or len(value) != shape[0]:
        raise SchemaError(
            f"{path}: expected {shape[0]} rows", field=path
        )
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != shape[1]:
            raise SchemaError(
                f"{path}[{i}]: expected {shape[1]} columns", field=f"{path}[{i}]"
            )
    # allocated only now that the rows bound the shape a file may claim
    arr = np.empty(shape)
    for i, row in enumerate(value):
        if {type(x) for x in row} <= _NUMBER_TYPES:
            try:
                arr[i] = row
                continue
            except OverflowError:
                pass
        # slow path: find and name the first entry that is not a float
        for j, entry in enumerate(row):
            field = f"{path}[{i}][{j}]"
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise SchemaError(
                    f"{field}: expected number, got {type(entry).__name__}",
                    field=field,
                )
            try:
                arr[i, j] = float(entry)
            except OverflowError:
                raise SchemaError(
                    f"{field}: integer too large for a float", field=field
                ) from None
    return arr


def parse_system(text, base_dir=None, require_hurwitz=True):
    """Parse a system file into a validated :class:`~lqomor.model.LqoSystem`.

    Parameters
    ----------
    text : str or bytes
        UTF-8 JSON document.
    base_dir : str, optional
        Directory against which Matrix Market references are resolved.
    require_hurwitz : bool
        Reduced models produced by horizon-limited methods may be unstable;
        pass False to admit them.  Full-order inputs keep the default.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"invalid UTF-8: {exc}", field="") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}", field="") from exc
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply", field="") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object", field="")
    version = doc.get("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise SchemaError(f"version: unsupported value {version!r}", field="version")
    counts = {}
    for name in _COUNT_FIELDS:
        if name not in doc:
            raise SchemaError(f"{name}: missing required field", field=name)
        value = doc[name]
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise SchemaError(f"{name}: expected positive integer", field=name)
        counts[name] = value
    for name in ("A", "B", "C", "M"):
        if name not in doc:
            raise SchemaError(f"{name}: missing required field", field=name)
    n, m, p = counts["n_states"], counts["n_inputs"], counts["n_outputs"]
    a = _as_array(doc["A"], (n, n), "A", base_dir)
    b = _as_array(doc["B"], (n, m), "B", base_dir)
    c = _as_array(doc["C"], (p, n), "C", base_dir)
    if not isinstance(doc["M"], list):
        raise SchemaError("M: expected a list of matrices", field="M")
    if len(doc["M"]) != p:
        raise SchemaError(
            f"M length {len(doc['M'])} != p {p}", field="M", expected=p
        )
    mats = [
        _as_array(mi, (n, n), f"M[{i}]", base_dir) for i, mi in enumerate(doc["M"])
    ]
    return LqoSystem(a, b, c, mats, check_hurwitz=require_hurwitz)


def load_system(path, require_hurwitz=True):
    """Read and parse a system file from disk."""
    with open(path, "rb") as fh:
        return parse_system(
            fh.read(), base_dir=os.path.dirname(os.path.abspath(path)),
            require_hurwitz=require_hurwitz,
        )


def _matrix_lists(arr):
    return [[float(x) for x in row] for row in np.asarray(arr)]


def system_document(system):
    """Plain-dict form of a system, ready for JSON encoding."""
    return {
        "version": FORMAT_VERSION,
        "n_states": system.order,
        "n_inputs": system.n_inputs,
        "n_outputs": system.n_outputs,
        "A": _matrix_lists(system.A),
        "B": _matrix_lists(system.B),
        "C": _matrix_lists(system.C),
        "M": [_matrix_lists(mi) for mi in system.M],
    }


def json_text(doc):
    """The one JSON layout of every document: two-space indent, final newline."""
    return json.dumps(doc, indent=2) + "\n"


def write_json(doc, path):
    """Write a document to ``path`` as UTF-8 :func:`json_text`."""
    with open(path, "wb") as fh:
        fh.write(json_text(doc).encode("utf-8"))


def serialize_system(system):
    """Encode a system as UTF-8 JSON bytes; inverse of :func:`parse_system`."""
    return json_text(system_document(system)).encode("utf-8")


def save_system(system, path):
    write_json(system_document(system), path)


def _pole_pairs(poles):
    return [[float(z.real), float(z.imag)] for z in np.asarray(poles, dtype=complex)]


def residual_norms_document(residuals):
    """Fixed four-field summary of an optimality report (op2 is the worst channel)."""
    if residuals is None:
        return None
    return {
        "op1": residuals.op1_norm,
        "op2": max(residuals.op2_norms) if residuals.op2_norms else 0.0,
        "op3": residuals.op3_norm,
        "op4": residuals.op4_norm,
    }


def report_document(report):
    """Plain-dict form of a :class:`~lqomor.reductors.ReductionReport`."""
    return {
        "method": report.method,
        "converged": report.converged,
        "iterations": report.iterations,
        "rom_hurwitz": report.rom.is_hurwitz,
        "pole_history": [_pole_pairs(p) for p in report.pole_history],
        "convergence_metric": [float(x) for x in report.convergence_metric],
        "residual_norms": residual_norms_document(report.residuals),
        "warnings": list(report.warnings),
        "rom": system_document(report.rom),
    }


def serialize_report(report):
    """Encode a reduction report as UTF-8 JSON bytes."""
    return json_text(report_document(report)).encode("utf-8")


def save_report(report, path):
    write_json(report_document(report), path)
