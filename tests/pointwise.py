"""The pointwise ideal-membership oracle of acceptance criterion 10.

An SVD null space, kept in the tests as a reference independent of the
wedge criterion that :func:`gvcheck.ideal_member` uses.
"""
import itertools

import numpy as np

from gvcheck import DegreeError, DiffForm, evaluate


def eval_coeffs(a: DiffForm, point):
    """Evaluate every stored coefficient at a point: dict idx -> float."""
    return {idx: evaluate(c, point) for idx, c in a.coeffs.items()}


def eval_on_vectors(a: DiffForm, point, vectors):
    """Evaluate the p-form on p tangent vectors at a point.

    Each vector is a sequence of components in chart order; the value is
    the sum over index tuples of coefficient * det of the selected rows.
    """
    p = a.degree
    if p == 0:
        (c,) = a.coeffs.values() or (None,)
        return evaluate(c, point) if c is not None else 0.0
    if len(vectors) != p:
        raise DegreeError("a %d-form needs exactly %d vectors" % (p, p))
    vs = np.asarray(vectors, dtype=float)
    total = 0.0
    for idx, c in a.coeffs.items():
        sub = vs[:, list(idx)].T  # rows: selected components, columns: vectors
        total += evaluate(c, point) * float(np.linalg.det(sub))
    return total


def ideal_member_pointwise(b: DiffForm, gens, point, abs_tol=1e-9, rel_tol=1e-9):
    """Independent pointwise oracle for ideal membership.

    Completes the annihilator of the generators at the point to a basis
    (numerically, via the SVD null space) and tests that b vanishes when
    all its arguments come from the annihilator: the pure-complement
    block of b in an adapted basis.
    """
    m = len(b.coords)
    p = b.degree
    if gens:
        rows = []
        for g in gens:
            row = [0.0] * m
            for (i,), c in g.coeffs.items():
                row[i] = evaluate(c, point)
            rows.append(row)
        a = np.asarray(rows)
        _, s, vh = np.linalg.svd(a)
        rank = int((s > 1e-12 * max(1.0, s[0])).sum()) if s.size else 0
        null = vh[rank:]
    else:
        null = np.eye(m)
    if null.shape[0] < p:
        return True  # fewer tangent directions than arguments: vacuously member
    scale = sum(abs(v) for v in eval_coeffs(b, point).values())
    threshold = abs_tol + rel_tol * scale
    for combo in itertools.combinations(range(null.shape[0]), p):
        vecs = [null[i] for i in combo]
        if abs(eval_on_vectors(b, point, vecs)) > threshold:
            return False
    return True
