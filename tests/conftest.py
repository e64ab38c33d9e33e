"""Shared test fixtures and the acceptance-summary terminal hook."""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np

from infogeo import Measurement, outcome_distribution, statistical_distance
from infogeo.transforms import _haar_from_gaussian

# One human-readable line per acceptance criterion, collected while the
# acceptance tests run and replayed after the capture ends so they are
# always visible in plain `pytest -v` output.
ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, title: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {number} ({title}): {status} -- {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def decimal_ray_angle(x, y, sqrt: bool = False) -> float:
    """Angle between the rays of two real vectors, to ~1e-16 relative.

    The half chord |x/|x| - y/|y|| / 2 is evaluated in 60-digit decimal
    arithmetic on the stored floats and the angle is 2 asin(half chord),
    so it is a reference for small angles.  With sqrt=True the rays are
    those of the exact entry-wise square roots of x and y (probability
    vectors).
    """
    with localcontext() as ctx:
        ctx.prec = 60
        xs = [Decimal(float(a)) for a in x]
        ys = [Decimal(float(b)) for b in y]
        if sqrt:
            xs = [a.sqrt() for a in xs]
            ys = [b.sqrt() for b in ys]
        nx = sum(a * a for a in xs).sqrt()
        ny = sum(b * b for b in ys).sqrt()
        half = sum((a / nx - b / ny) ** 2 for a, b in zip(xs, ys)).sqrt() / 2
    return 2.0 * math.asin(float(half))


def complex_gaussian(rng, shape) -> np.ndarray:
    # complex standard normals of shape, every real part drawn first
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_columns_distance(g, vectors, u, v) -> float:
    """statistical_distance after the Haar measurement that a draw of Haar
    columns defines, through the public objects.

    g is the draw's (n, 2) complex Gaussian and [p q] = vectors.T = Q R.
    The columns are completed to a full Haar W = C_full Q_full^H: C_full is
    the Haar unitary of an (n, n) Gaussian whose first two columns are g
    (the rest drawn from a fixed stream), so its first two columns are the
    draw's columns C, and Q_full is the complete QR's Q of [p q]; then
    W [p q] = C R.
    """
    n = len(g)
    rng = np.random.default_rng(0)
    rest = rng.standard_normal((n, n - 2)) + 1j * rng.standard_normal((n, n - 2))
    c_full = _haar_from_gaussian(np.concatenate((g, rest), axis=1))
    q_full = np.linalg.qr(np.transpose(vectors), mode="complete")[0]
    meas = Measurement(c_full @ q_full.conj().T)
    return statistical_distance(outcome_distribution(meas, u), outcome_distribution(meas, v))
