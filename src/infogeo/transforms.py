"""Orthogonal maps on the hypersphere and their complex classification.

A continuous symmetry of the Euclidean metric on square-root coordinates is a
2N x 2N orthogonal matrix.  Compatibility with the pairing of events into
outcomes and with the angle gauge forces such a matrix into 2 x 2 blocks

    T(i, j) = alpha_ij * R(phi_ij) * refl^beta,
    R(phi) = [[cos phi, -sin phi], [sin phi, cos phi]],
    refl   = [[1, 0], [0, -1]],

with one global beta in {0, 1}.  Writing J for the block-diagonal complex
structure (each block R(pi/2), J^2 = -I), the two branches are detected by
commutation:

    m J = J m   (Type1)  <->  a unitary acting on complex amplitudes,
    m J = -J m  (Type2)  <->  an antiunitary v -> u @ conj(v).

Generic orthogonal matrices at 2N >= 4 do neither and fail gauge invariance
of the coarse-grained outcome probabilities.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotOrthogonal, NotUnitary, ValidationError, WrongType
from .simplex import _vector
from .statespace import DEFAULT_GAUGE, GaugeConvention, _interleave

STRUCTURAL_TOL = 1e-10


def _as_square_matrix(m, dtype) -> np.ndarray:
    arr = np.asarray(m, dtype=dtype)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("matrix contains non-finite entries")
    return arr


def _require_isometries(m: np.ndarray, error: type, what: str) -> None:
    """Raise error unless m^dagger @ m = I (m.T @ m for real m) within
    Frobenius norm STRUCTURAL_TOL for every matrix of a (..., n, n) stack."""
    # the Gram stack stays a temporary, freed before the norm's own temporaries
    gram_minus_i = np.swapaxes(m.conj(), -1, -2) @ m - np.eye(m.shape[-1])
    defect = np.linalg.norm(gram_minus_i, axis=(-2, -1)).max()
    if defect > STRUCTURAL_TOL:
        raise error(f"{what} deviates from I by {defect:.3e} (tol {STRUCTURAL_TOL:g})")


def require_orthogonal(m) -> np.ndarray:
    """Validate m.T @ m = I within Frobenius norm STRUCTURAL_TOL; return m as ndarray."""
    arr = _as_square_matrix(m, float)
    _require_isometries(arr, NotOrthogonal, "m.T @ m")
    return arr


def require_unitary(u) -> np.ndarray:
    """Validate u^dagger @ u = I within Frobenius norm STRUCTURAL_TOL; return u as ndarray."""
    arr = _as_square_matrix(u, complex)
    _require_isometries(arr, NotUnitary, "u^dagger @ u")
    return arr


def complex_structure(dim: int) -> np.ndarray:
    """Block-diagonal J with 2x2 blocks [[0, -1], [1, 0]]; J @ J = -I."""
    if dim < 2 or dim % 2 != 0:
        raise ValidationError("dim must be even and >= 2")
    j = np.zeros((dim, dim))
    idx = np.arange(0, dim, 2)
    j[idx, idx + 1] = -1.0
    j[idx + 1, idx] = 1.0
    return j


class TransformKind(enum.Enum):
    TYPE1 = "type1"
    TYPE2 = "type2"
    NEITHER = "neither"


@dataclass(frozen=True, eq=False)
class Classification:
    """Commutation type of an orthogonal map plus recovered block parameters.

    alpha[i, j] >= 0 and phi[i, j] in [0, 2pi) satisfy
    block(i, j) = alpha * R(phi) * refl^beta; they are None for NEITHER.
    """

    kind: TransformKind
    alpha: np.ndarray | None
    phi: np.ndarray | None
    beta: int | None
    commutator_norm: float
    anticommutator_norm: float


def _block_params(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # block(i,j) = [[a, .], [b, .]] with a = alpha cos(phi), b = alpha sin(phi)
    # for both branches; the second column only differs by the reflection.
    a = m[0::2, 0::2]
    b = m[1::2, 0::2]
    alpha = np.hypot(a, b)
    phi = np.mod(np.arctan2(b, a), 2.0 * math.pi)
    phi[alpha == 0.0] = 0.0
    return alpha, phi


def classify(m) -> Classification:
    """Classify an orthogonal map by its commutation with J within STRUCTURAL_TOL.

    Raises NotOrthogonal for inputs failing m.T @ m = I within 1e-10.
    """
    arr = require_orthogonal(m)
    j = complex_structure(arr.shape[0])
    comm = float(np.linalg.norm(arr @ j - j @ arr))
    anti = float(np.linalg.norm(arr @ j + j @ arr))
    if comm <= STRUCTURAL_TOL:
        alpha, phi = _block_params(arr)
        return Classification(TransformKind.TYPE1, alpha, phi, 0, comm, anti)
    if anti <= STRUCTURAL_TOL:
        alpha, phi = _block_params(arr)
        return Classification(TransformKind.TYPE2, alpha, phi, 1, comm, anti)
    return Classification(TransformKind.NEITHER, None, None, None, comm, anti)


def _to_complex_matrix(m, kind: TransformKind) -> np.ndarray:
    # classify validates orthogonality; both branches read u off the first
    # column of every block
    arr = np.asarray(m, dtype=float)
    c = classify(arr)
    if c.kind is not kind:
        raise WrongType(f"map classifies as {c.kind.value}, not {kind.value}")
    return arr[0::2, 0::2] + 1j * arr[1::2, 0::2]


def to_unitary(m) -> np.ndarray:
    """Complex N x N unitary of a Type1 map: u_ij = alpha_ij exp(1j phi_ij).

    Satisfies to_complex(m @ Q) = u @ to_complex(Q).  Raises WrongType for
    Type2 or unclassifiable maps.
    """
    return _to_complex_matrix(m, TransformKind.TYPE1)


def to_antiunitary(m) -> np.ndarray:
    """Complex N x N matrix u of a Type2 map acting as v -> u @ conj(v).

    Satisfies to_complex(m @ Q) = u @ conj(to_complex(Q)).  Raises WrongType
    for Type1 or unclassifiable maps.
    """
    return _to_complex_matrix(m, TransformKind.TYPE2)


def from_unitary(u) -> np.ndarray:
    """Real 2N x 2N Type1 map with blocks |u_ij| R(arg u_ij).

    Inverse of to_unitary up to floating error below 1e-12.  Raises
    NotUnitary for non-unitary input.
    """
    arr = require_unitary(u)
    n = arr.shape[0]
    m = np.empty((2 * n, 2 * n))
    m[0::2, 0::2] = arr.real
    m[0::2, 1::2] = -arr.imag
    m[1::2, 0::2] = arr.imag
    m[1::2, 1::2] = arr.real
    return m


def from_antiunitary(u) -> np.ndarray:
    """Real 2N x 2N Type2 map realizing v -> u @ conj(v) on amplitudes.

    The Type1 layout of u with every block reflected: odd columns negated.
    """
    m = from_unitary(u)
    m[:, 1::2] *= -1.0
    return m


@dataclass(frozen=True, eq=False)
class ProbeResult:
    """Worst coarse-grained probability deviation over sampled gauge shifts."""

    passed: bool
    max_deviation: float
    witness_state: np.ndarray | None
    witness_shift: float | None


def gauge_invariance_probe(
    m,
    states: list | None = None,
    chi0s=None,
    g: GaugeConvention = DEFAULT_GAUGE,
    n_states: int = 32,
    n_shifts: int = 16,
    seed: int = 0,
) -> ProbeResult:
    """Compare outcome probabilities of m @ Q before and after gauge shifts.

    For each sampled state Q (a RealState) and shift chi0, the coarse-grained
    outcome probabilities of m applied to Q and to the gauge-shifted Q are
    compared; the probe passes iff the worst absolute deviation is at most
    STRUCTURAL_TOL.  When a violation exists the witnessing state and shift
    are recorded (the first in state-major order among equal deviations).
    Defaults draw 32 uniform states and 16 shifts from the given seed.
    Raises ValidationError for empty or non-finite states or shifts and
    DimensionMismatch for states of another dimension than m.
    """
    arr = _as_square_matrix(m, float)
    dim = arr.shape[0]
    if dim < 4 or dim % 2 != 0:
        raise ValidationError("map must act on an even dimension >= 4")
    rng = np.random.default_rng(seed)
    if states is None:
        if n_states < 1:
            raise ValidationError("n_states must be positive")
        qs = rng.standard_normal((n_states, dim))
        qs /= np.linalg.norm(qs, axis=1, keepdims=True)
    else:
        qs = [state.q for state in states]
        if not qs:
            raise ValidationError("states must not be empty")
        if any(q.shape != (dim,) for q in qs):
            raise DimensionMismatch(f"states must have dimension {dim}, the map's")
        qs = np.stack(qs)
    if chi0s is None:
        if n_shifts < 1:
            raise ValidationError("n_shifts must be positive")
        chi0s = rng.uniform(0.0, 2.0 * math.pi, size=n_shifts)
    # one shift is a legal grid, so a 1-entry chi0s is checked as size 1
    chi0s = _vector(chi0s, "chi0s", size=1 if np.shape(chi0s) == (1,) else None)

    # a shift turns every coordinate pair by a * chi0; shift 0 comes first, so
    # imgs[:, 0] is the unshifted image of each state
    angles = g.a * np.concatenate(([0.0], chi0s))[None, :, None]
    cos, sin = np.cos(angles), np.sin(angles)
    even, odd = qs[:, None, 0::2], qs[:, None, 1::2]
    imgs = _interleave(even * cos - odd * sin, even * sin + odd * cos) @ arr.T
    probs = (imgs**2).reshape(*imgs.shape[:2], -1, 2).sum(axis=3)
    devs = np.abs(probs[:, 1:] - probs[:, :1]).max(axis=2)
    # row-major argmax: the first state, then the first shift, at the maximum
    i, k = np.unravel_index(devs.argmax(), devs.shape)
    worst = float(devs[i, k])
    passed = worst <= STRUCTURAL_TOL
    witness = None
    if not passed:
        # a read-only copy, like RealState.q, not a view into the work array
        witness = qs[i].copy()
        witness.flags.writeable = False
    return ProbeResult(
        passed=passed,
        max_deviation=worst,
        witness_state=witness,
        witness_shift=None if passed else float(chi0s[k]),
    )


def _haar(rng: np.random.Generator, dim: int, batch: tuple = (), complex_=False) -> np.ndarray:
    """Haar-random orthogonal or unitary matrices of shape (*batch, dim, dim),
    by _haar_from_gaussian of _gaussian draws."""
    if dim < 2:
        raise ValidationError("dim must be >= 2")
    return _haar_from_gaussian(_gaussian(rng, (*batch, dim, dim), complex_))


def _gaussian(rng: np.random.Generator, shape: tuple, complex_=False) -> np.ndarray:
    # standard normals of shape; complex ones take every real part first
    z = rng.standard_normal(shape)
    return z + 1j * rng.standard_normal(shape) if complex_ else z


def _haar_from_gaussian(z: np.ndarray) -> np.ndarray:
    """Haar-random matrices from a (*batch, dim, dim) stack of (complex)
    standard normals.

    QR of each matrix with each column of Q scaled by the phase of the
    matching diagonal entry of R, which makes the distribution exactly Haar
    (Mezzadri, math-ph/0609050).
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0.0] = 1.0
    return q * (d / np.abs(d))[..., None, :]


def random_orthogonal(dim: int, seed) -> np.ndarray:
    """Haar-random orthogonal matrix via QR of a standard-normal matrix.

    Bitwise reproducible for a fixed integer seed.
    """
    return _haar(np.random.default_rng(seed), dim)


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-random unitary via QR of a complex standard-normal matrix."""
    return _haar(np.random.default_rng(seed), dim, complex_=True)
