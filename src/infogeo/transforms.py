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
of the coarse-grained outcome probabilities.  classify, the probe and the
converters run private stack kernels on a stack of one; the batteries run
them, and _frobenius (simplex._norms, the one row norm, of the flattened
matrices), on whole stacks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotOrthogonal, NotUnitary, ValidationError, WrongType
from .simplex import _integer, _norms, _vector
from .statespace import DEFAULT_GAUGE, GaugeConvention, _real_states

STRUCTURAL_TOL = 1e-10
# the probe's default sample counts
PROBE_STATES = 32
PROBE_SHIFTS = 16


def _as_square_matrix(m, dtype) -> np.ndarray:
    arr = np.asarray(m, dtype=dtype)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("matrix contains non-finite entries")
    return arr


def _frobenius(ms: np.ndarray) -> np.ndarray:
    # Frobenius norm of each matrix of a C-contiguous (..., r, c) stack, as
    # np.linalg.norm rounds it
    return _norms(ms.reshape(*ms.shape[:-2], -1))


def _require_isometries(m: np.ndarray, error: type, what: str) -> np.ndarray:
    """Raise error unless m^dagger @ m = I (m.T @ m for real m) within
    Frobenius norm STRUCTURAL_TOL for every matrix of a (..., n, k) stack,
    k <= n (unitary or orthogonal when k = n; isometries, such as Haar
    columns, when k < n); return each matrix's Frobenius norm of
    m^dagger @ m - I.  Non-finite entries raise before the product, which
    would flag inf * 0."""
    if not np.isfinite(m).all():
        raise error(f"{what} deviates from I by nan (tol {STRUCTURAL_TOL:g}): non-finite entry")
    defects = _frobenius(np.swapaxes(m.conj(), -1, -2) @ m - np.eye(m.shape[-1]))
    defect = np.max(defects, initial=0.0)
    if not defect <= STRUCTURAL_TOL:  # a NaN defect fails too
        raise error(f"{what} deviates from I by {defect:.3e} (tol {STRUCTURAL_TOL:g})")
    return defects


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
    dim = _integer(dim, "dim")
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


def _commutation(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """classify's test over a (..., d, d) stack of orthogonal maps in one
    pass: each map's TransformKind (an object array) and the Frobenius norms
    of m J - J m and m J + J m."""
    j = complex_structure(ms.shape[-1])
    mj, jm = ms @ j, j @ ms
    comm, anti = _frobenius(mj - jm), _frobenius(mj + jm)
    kinds = np.where(
        comm <= STRUCTURAL_TOL,
        TransformKind.TYPE1,
        np.where(anti <= STRUCTURAL_TOL, TransformKind.TYPE2, TransformKind.NEITHER),
    )
    return kinds, comm, anti


def classify(m) -> Classification:
    """Classify an orthogonal map by its commutation with J within STRUCTURAL_TOL.

    Raises NotOrthogonal for inputs failing m.T @ m = I within 1e-10.
    """
    arr = require_orthogonal(m)
    (kind,), (comm,), (anti,) = _commutation(arr[None])
    comm, anti = float(comm), float(anti)
    if kind is TransformKind.NEITHER:
        return Classification(kind, None, None, None, comm, anti)
    alpha, phi = _block_params(arr)
    return Classification(kind, alpha, phi, int(kind is TransformKind.TYPE2), comm, anti)


def _complex_blocks(ms: np.ndarray) -> np.ndarray:
    # u of each Type1 or Type2 map of a (..., 2N, 2N) stack: both branches
    # read it off the first column of every block
    return ms[..., 0::2, 0::2] + 1j * ms[..., 1::2, 0::2]


def _to_complex_matrix(m, kind: TransformKind) -> np.ndarray:
    # classify validates orthogonality
    arr = np.asarray(m, dtype=float)
    c = classify(arr)
    if c.kind is not kind:
        raise WrongType(f"map classifies as {c.kind.value}, not {kind.value}")
    return _complex_blocks(arr)


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


def _real_layout(us: np.ndarray, beta: int) -> np.ndarray:
    """The real (..., 2N, 2N) maps of a (..., N, N) stack of complex
    matrices: blocks |u_ij| R(arg u_ij) for beta 0 (Type1), each block
    reflected, its second column negated, for beta 1 (Type2)."""
    re, im = us.real, us.imag
    m = np.empty((*us.shape[:-2], 2 * us.shape[-2], 2 * us.shape[-1]))
    m[..., 0::2, 0::2] = re
    m[..., 1::2, 0::2] = im
    m[..., 0::2, 1::2] = im if beta else -im
    m[..., 1::2, 1::2] = -re if beta else re
    return m


def from_unitary(u) -> np.ndarray:
    """Real 2N x 2N Type1 map with blocks |u_ij| R(arg u_ij).

    Inverse of to_unitary up to floating error below 1e-12.  Raises
    NotUnitary for non-unitary input.
    """
    return _real_layout(require_unitary(u), 0)


def from_antiunitary(u) -> np.ndarray:
    """Real 2N x 2N Type2 map realizing v -> u @ conj(v) on amplitudes.

    The Type1 layout of u with every block reflected: odd columns negated.
    """
    return _real_layout(require_unitary(u), 1)


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
    n_states: int = PROBE_STATES,
    n_shifts: int = PROBE_SHIFTS,
    seed: int = 0,
) -> ProbeResult:
    """Compare outcome probabilities of m @ Q before and after gauge shifts.

    For each sampled state Q (a RealState) and shift chi0, the coarse-grained
    outcome probabilities of m applied to Q and to the gauge-shifted Q are
    compared; the probe passes iff the worst absolute deviation is at most
    STRUCTURAL_TOL.  When a violation exists the witnessing state and shift
    are recorded (the first in state-major order among equal deviations).
    Defaults draw from the given seed 32 states, random_real_state(dim,
    rng) calls in turn, then 16 uniform shifts in [0, 2pi).
    Raises ValidationError for empty or non-finite states or shifts and
    DimensionMismatch for states of another dimension than m.
    """
    arr = _as_square_matrix(m, float)
    dim = arr.shape[0]
    if dim < 4 or dim % 2 != 0:
        raise ValidationError("map must act on an even dimension >= 4")
    rng = np.random.default_rng(seed)
    if states is None:
        n_states = _integer(n_states, "n_states")
        if n_states < 1:
            raise ValidationError("n_states must be positive")
        qs = _real_states(rng, n_states, dim)
    else:
        qs = [state.q for state in states]
        if not qs:
            raise ValidationError("states must not be empty")
        if any(q.shape != (dim,) for q in qs):
            raise DimensionMismatch(f"states must have dimension {dim}, the map's")
        qs = np.stack(qs)
    if chi0s is None:
        n_shifts = _integer(n_shifts, "n_shifts")
        if n_shifts < 1:
            raise ValidationError("n_shifts must be positive")
        chi0s = _probe_shifts(rng, n_shifts)
    # one shift is a legal grid, so a 1-entry chi0s is checked as size 1
    chi0s = _vector(chi0s, "chi0s", size=1 if np.shape(chi0s) == (1,) else None)
    (passed,), (worst,), (i,), (k,) = _probe_stack(arr[None], qs[None], chi0s[None], g)
    witness = None
    if not passed:
        # a read-only copy, like RealState.q, not a view into the work array
        witness = qs[i].copy()
        witness.flags.writeable = False
    return ProbeResult(
        passed=bool(passed),
        max_deviation=float(worst),
        witness_state=witness,
        witness_shift=None if passed else float(chi0s[k]),
    )


def _probe_shifts(rng: np.random.Generator, shape) -> np.ndarray:
    # the probe's default shifts, drawn after its default states
    return rng.uniform(0.0, 2.0 * math.pi, size=shape)


def _probe_stack(
    ms: np.ndarray, qs: np.ndarray, chi0s: np.ndarray, g: GaugeConvention
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """gauge_invariance_probe's comparison for a stack of maps ms (maps, d, d),
    with states qs (maps, states, d) and shifts chi0s (maps, shifts) per map,
    in one array pass.  Returns per map whether it passes, its worst
    deviation and the (state, shift) indices of the first occurrence of that
    deviation in state-major order."""
    # a shift turns every coordinate pair by a * chi0; shift 0 comes first, so
    # probs[..., 0] is the unshifted image's.  Work arrays are (maps,
    # coordinates, states, shifts + 1): each array pass runs along states and
    # shifts, not along the short coordinate pairs
    maps, dim = len(ms), ms.shape[-1]
    zero = np.zeros((maps, 1))
    angles = g.a * np.concatenate((zero, chi0s), axis=1)[:, None, None, :]
    cos, sin = np.cos(angles), np.sin(angles)
    qt = np.swapaxes(qs, 1, 2)[..., None]
    even, odd = qt[:, 0::2], qt[:, 1::2]
    shape = (maps, dim // 2, qs.shape[1], angles.shape[-1])
    shifted = np.empty((maps, dim, *shape[2:]))
    np.subtract(even * cos, odd * sin, out=shifted[:, 0::2])
    np.add(even * sin, odd * cos, out=shifted[:, 1::2])
    sq = ms @ shifted.reshape(maps, dim, -1)
    # each work array is freed before the next one of its size is made
    del shifted
    np.square(sq, out=sq)
    probs = np.add(sq[:, 0::2], sq[:, 1::2]).reshape(shape)
    del sq
    devs = np.abs(probs[..., 1:] - probs[..., :1]).max(axis=1).reshape(maps, -1)
    # row-major argmax: the first state, then the first shift, at the maximum
    flat = devs.argmax(axis=1)
    worst = devs[np.arange(maps), flat]
    i, k = np.divmod(flat, chi0s.shape[1])
    return worst <= STRUCTURAL_TOL, worst, i, k


def _haar(rng: np.random.Generator, dim: int, batch: tuple = (), complex_=False) -> np.ndarray:
    """Haar-random orthogonal or unitary matrices of shape (*batch, dim, dim),
    by _haar_from_gaussian of standard normals drawn matrix by matrix (a
    unitary's real parts, then its imaginary parts): the stack of as many
    random_orthogonal or random_unitary(dim, rng) calls in turn."""
    if _integer(dim, "dim") < 2:
        raise ValidationError("dim must be >= 2")
    z = rng.standard_normal((*batch, 2 if complex_ else 1, dim, dim))
    z = z[..., 0, :, :] + 1j * z[..., 1, :, :] if complex_ else z[..., 0, :, :]
    return _haar_from_gaussian(z)


# The byte budget of every array pass whose arrays grow with n: a pass takes
# _per_pass(item_bytes) items, item_bytes being its largest array per item.
# It sizes correspondence's map passes (the probe's (maps, 32, 17, 2n) floats)
# and closure products ((2n)^2 floats), and wootters' envelope draws (8n
# floats) and certifier draws ((n, 2) complex Gaussians).  At n = 2, 16 maps
# per pass ran no faster than 8 and raised the default batteries' peak RSS
# by ~0.3 MB.
_PASS_BYTES = 140_000


def _per_pass(item_bytes: int) -> int:
    return max(1, _PASS_BYTES // item_bytes)


def _haar_from_gaussian(z: np.ndarray) -> np.ndarray:
    """Haar-random matrices from a (*batch, dim, k) stack of (complex)
    standard normals, k <= dim.

    QR of each matrix with each column of Q scaled by the phase of the
    matching diagonal entry of R, which makes the distribution exactly Haar
    (Mezzadri, math-ph/0609050).  For k < dim the thin QR gives the first k
    columns of the Haar matrices of any (dim, dim) stack that holds z as its
    first k columns, bit for bit (tested at dim 2, 3, 8 and 64).
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0.0] = 1.0
    return q * (d / np.abs(d))[..., None, :]


def _haar_images(vectors: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The images W [p q] = C R, as (2, n) rows, of each row pair [p q] of
    the (..., 2, n) stack vectors under a Haar unitary W, given its (n, 2)
    Haar columns C of the stack c (_haar_from_gaussian of n x 2 Gaussians).

    A statistical distance after a Haar W needs only such images: with
    [p q] = Q R a thin QR, W [p q] = (W Q) R, and W Q is distributed as the
    first two columns of a Haar unitary (Mezzadri 2007, Notices AMS 54:592).
    So a draw costs O(n), and C R keeps the Gram matrix R^H R of [p q].
    """
    r = np.linalg.qr(np.swapaxes(vectors, -1, -2), mode="r")
    # C R for upper triangular R, elementwise: a matmul over the stack of
    # small matrices took 5-9 times as long at n = 2 and 8
    c0, c1 = c[..., 0], c[..., 1]
    return np.stack((c0 * r[..., :1, 0], c0 * r[..., :1, 1] + c1 * r[..., 1:, 1]), axis=-2)


def random_orthogonal(dim: int, seed) -> np.ndarray:
    """Haar-random orthogonal matrix via QR of a standard-normal matrix.

    Bitwise reproducible for a fixed integer seed.
    """
    return _haar(np.random.default_rng(seed), dim)


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-random unitary via QR of a complex standard-normal matrix."""
    return _haar(np.random.default_rng(seed), dim, complex_=True)
