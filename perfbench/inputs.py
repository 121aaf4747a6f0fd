"""Seeded input generation for the benchmark workloads.

The generators here depend on numpy only, never on the library under
test, so a change to the library or to its test helpers cannot change
what the benchmark feeds it.  Every system is written in the documented
JSON system-file format; the SHA-256 fingerprint over all files written
for a run shows whether two runs fed the program identical inputs.
"""

import hashlib
import json
import os

import numpy as np


def stable_matrix(rng, n, margin=1.0):
    """Random dense matrix shifted to put all eigenvalues left of -margin.

    Same recipe as the test suite's ``stable_matrix``, copied so that the
    benchmark inputs stay fixed when the tests change.
    """
    g = rng.normal(size=(n, n))
    shift = np.linalg.eigvals(g).real.max() + margin
    return g - shift * np.eye(n)


def rand_system(rng, n, m=1, p=1, mscale=0.4, margin=1.0):
    """Random Hurwitz quadratic-output system ``(A, B, C, [M_i])``.

    Same recipe and random-draw order as the test suite's ``rand_system``.
    """
    a = stable_matrix(rng, n, margin)
    b = rng.normal(size=(n, m))
    c = rng.normal(size=(p, n))
    mats = []
    for _ in range(p):
        s = rng.normal(size=(n, n)) * mscale
        mats.append((s + s.T) / 2.0)
    return a, b, c, mats


def read_system(path):
    """Matrices of a system file with inline matrices (no library involved)."""
    with open(path) as fh:
        doc = json.load(fh)
    return (
        np.array(doc["A"], dtype=float),
        np.array(doc["B"], dtype=float),
        np.array(doc["C"], dtype=float),
        [np.array(mi, dtype=float) for mi in doc["M"]],
    )


def rotate(rng, system):
    """Orthogonal state-space transform of ``system`` by a random rotation.

    ``x -> T x`` with orthogonal T leaves the input-output map, every
    horizon-limited norm and every stationarity residual unchanged, while
    giving each pass a system file with different numbers.
    """
    a, b, c, mats = system
    t, r = np.linalg.qr(rng.normal(size=a.shape))
    t = t * np.sign(np.diag(r))
    rotated = [t @ mi @ t.T for mi in mats]
    return t @ a @ t.T, t @ b, c @ t.T, [(mi + mi.T) / 2.0 for mi in rotated]


def system_document(system):
    a, b, c, mats = system
    return {
        "version": 1,
        "n_states": int(a.shape[0]),
        "n_inputs": int(b.shape[1]),
        "n_outputs": int(c.shape[0]),
        "A": a.tolist(),
        "B": b.tolist(),
        "C": c.tolist(),
        "M": [mi.tolist() for mi in mats],
    }


def write_system(system, path):
    with open(path, "w") as fh:
        json.dump(system_document(system), fh)
        fh.write("\n")


def write_json(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def fingerprint(directory):
    """SHA-256 over the names and bytes of every file in ``directory``."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            digest.update(fh.read())
        digest.update(b"\0")
    return digest.hexdigest()
