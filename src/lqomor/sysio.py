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

:func:`load_system` keeps the systems it parsed, keyed by the file's
bytes themselves, so loading the same bytes again in one process returns
the same object with its Schur form already factored.  :func:`save_system`
keeps every system it writes under the bytes it wrote, so a file written in
this process loads as the object that was saved, with the facts it already
keeps; a system's matrices are C-ordered, as a parse gives them, so it
gives the bits a parse of its file would.
"""

import json
import os

import numpy as np

from . import matfun
from .errors import SchemaError
from .model import LqoSystem

FORMAT_VERSION = 1

#: Most systems :func:`load_system` keeps; the least recently loaded goes
#: first.  A command reads at most two files, a model and a reduced model;
#: a session that reduces one model and evaluates the results reads a few.
LOADED_SYSTEMS = 8

#: System of each loaded or saved document by its bytes, least recently
#: used first.  A load finds its key by comparing bytes, which checks the
#: length first and stops at the first differing byte; the key found
#: carries its hash, so a load of kept bytes hashes nothing.
_loaded = {}

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


def parse_system(text, base_dir=None):
    """Parse a system file into a validated :class:`~lqomor.model.LqoSystem`.

    Parameters
    ----------
    text : str or bytes
        UTF-8 JSON document.
    base_dir : str, optional
        Directory against which Matrix Market references are resolved.

    The file's A may have any spectrum: a quantity that needs a Hurwitz A
    (one on an infinite horizon) tests it when it is computed
    (:func:`lqomor.gramians.require_pair`).
    """
    return _parse(text, base_dir)[0]


def _parse(text, base_dir):
    """``(system, external)``: the system of a document and whether any of
    its matrices is a Matrix Market file."""
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
    external = any(
        isinstance(value, str) for value in [doc["A"], doc["B"], doc["C"], *doc["M"]]
    )
    del doc, text  # freed before the system copies the arrays
    return LqoSystem(a, b, c, mats, check_hurwitz=False), external


def _key(data):
    """The kept document equal to the bytes ``data``, or ``data`` itself."""
    return next((k for k in _loaded if k == data), data)


def load_system(path):
    """Read and parse a system file from disk, as :func:`parse_system` would.

    Loading bytes that were loaded or saved (:func:`save_system`) before in
    this process returns the same :class:`~lqomor.model.LqoSystem`, with its
    Schur form and Gramian memo: the last
    :data:`LOADED_SYSTEMS` documents are kept by their bytes, and a load
    finds its entry by comparing bytes, so a file rewritten in place is
    parsed again whatever its size and time stamps.
    Each kept document's bytes stay in memory.  A document that references
    Matrix Market files is not kept, since its bytes do not cover theirs.
    A file that fails to parse leaves nothing behind, and its
    :class:`~lqomor.errors.SchemaError` names it in ``context["path"]``; a
    Schur factorization that fails is tried again on its next use.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    key = _key(data)
    system, external = _loaded.get(key), False
    if system is None:
        try:
            system, external = _parse(data, os.path.dirname(os.path.abspath(path)))
        except SchemaError as exc:
            exc.context["path"] = str(path)
            raise
    if not external:
        matfun.recall(_loaded, key, LOADED_SYSTEMS, lambda: system)
    return system


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
    """Write a document to ``path`` as UTF-8 :func:`json_text`; returns the
    bytes written."""
    data = json_text(doc).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def save_system(system, path):
    """Write ``system`` to ``path`` as a :func:`system_document` and keep it
    for :func:`load_system` under the bytes written, as a load of them
    would, so that a later load of the file in this process returns
    ``system`` itself with what it already computed (or the system already
    kept under equal bytes, whose facts are the same)."""
    data = write_json(system_document(system), path)
    matfun.recall(_loaded, _key(data), LOADED_SYSTEMS, lambda: system)


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


def _pole_history(history):
    """``[re, im]`` pairs of every iterate's poles, converted as one
    ``(iterations + 1, r)`` array."""
    h = np.asarray(history, dtype=complex)
    return np.stack([h.real, h.imag], -1).tolist()


#: The fields of a report document in their order, each with its value.
_REPORT_FIELDS = {
    "method": lambda r: r.method,
    "converged": lambda r: r.converged,
    "iterations": lambda r: r.iterations,
    "rom_hurwitz": lambda r: r.rom.is_hurwitz,
    "pole_history": lambda r: _pole_history(r.pole_history),
    "convergence_metric": lambda r: [float(x) for x in r.convergence_metric],
    "residual_norms": lambda r: residual_norms_document(r.residuals),
    "warnings": lambda r: list(r.warnings),
    "rom": lambda r: system_document(r.rom),
}


def report_document(report, fields=tuple(_REPORT_FIELDS)):
    """Plain-dict form of a :class:`~lqomor.reductors.ReductionReport`:
    the named ``fields`` in the given order, by default the whole document;
    only the named fields are converted."""
    return {key: _REPORT_FIELDS[key](report) for key in fields}


def save_report(report, path):
    write_json(report_document(report), path)
