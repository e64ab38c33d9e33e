"""Measurements as unitary arrangements around a fixed reference probe.

A measurement is specified by a unitary u (the preparation stage of the
arrangement) followed by the reference standard-basis probe.  Its effective
basis vectors are

    b_i = exp(1j * phases_i) * u^{-1} @ e_i,

orthonormal by construction, and an input state v yields outcome i with
probability |b_i^dagger v|^2 = |(u @ v)_i|^2.  The arrangement is closed by
an output stage V; choosing V = u^{-1} makes it reproducible: feeding the
post-outcome state back yields the same outcome with certainty, and any V
that moves some basis image off b_k (beyond a phase) breaks reproducibility
on that k.  Outcome indices are 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ImpossibleOutcome, ValidationError
from .simplex import ProbDist
from .statespace import ComplexState
from .transforms import STRUCTURAL_TOL, require_unitary

_MIN_FORCEABLE_PROB = 1e-14


@dataclass(frozen=True, eq=False)
class Measurement:
    """A unitary arrangement u with per-outcome phase conventions."""

    u: np.ndarray
    phases: np.ndarray | None = None

    def __post_init__(self) -> None:
        arr = require_unitary(self.u, STRUCTURAL_TOL)
        if arr.shape[0] < 2:
            raise ValidationError("a measurement needs at least 2 outcomes")
        arr = arr.copy()
        arr.flags.writeable = False
        if self.phases is None:
            ph = np.zeros(arr.shape[0])
        else:
            ph = np.asarray(self.phases, dtype=float)
            if ph.shape != (arr.shape[0],):
                raise DimensionMismatch(
                    f"need {arr.shape[0]} phases, got shape {ph.shape}"
                )
            if not np.all(np.isfinite(ph)):
                raise ValidationError("phases must be finite")
            ph = ph.copy()
        ph.flags.writeable = False
        object.__setattr__(self, "u", arr)
        object.__setattr__(self, "phases", ph)

    @property
    def n(self) -> int:
        return int(self.u.shape[0])

    def basis(self) -> np.ndarray:
        """Matrix whose column i is b_i = exp(1j phases_i) * u^{-1} @ e_i."""
        return self.u.conj().T * np.exp(1j * self.phases)[None, :]


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """One measurement event: 0-based outcome, its probability, and the
    post-measurement state b_outcome (fixed up to the phase convention)."""

    outcome: int
    probability: float
    output_state: ComplexState


def outcome_distribution(meas: Measurement, v: ComplexState) -> ProbDist:
    """Born probabilities |b_i^dagger v|^2, computed as |(u @ v)_i|^2."""
    if v.n != meas.n:
        raise DimensionMismatch(f"state has {v.n} amplitudes, measurement {meas.n}")
    amps = meas.u @ v.v
    return ProbDist(np.abs(amps) ** 2)


def apply_measurement(
    meas: Measurement,
    v: ComplexState,
    forced_outcome: int | None = None,
    seed: int | None = None,
) -> MeasurementRecord:
    """Perform one measurement and return the record.

    With forced_outcome the call is deterministic; the outcome must have
    probability at least 1e-14 or ImpossibleOutcome is raised.  Without it a
    seed is required and the outcome is sampled from the Born distribution.
    """
    dist = outcome_distribution(meas, v)
    if forced_outcome is None:
        if seed is None:
            raise ValidationError("seed is required when no outcome is forced")
        rng = np.random.default_rng(seed)
        probs = dist.probs / dist.probs.sum()
        outcome = int(rng.choice(meas.n, p=probs))
    else:
        if not 0 <= forced_outcome < meas.n:
            raise ValidationError(
                f"forced_outcome {forced_outcome} outside 0..{meas.n - 1}"
            )
        if dist.probs[forced_outcome] < _MIN_FORCEABLE_PROB:
            raise ImpossibleOutcome(
                f"outcome {forced_outcome} has probability "
                f"{dist.probs[forced_outcome]:.3e} < {_MIN_FORCEABLE_PROB:g}"
            )
        outcome = int(forced_outcome)
    return MeasurementRecord(
        outcome=outcome,
        probability=float(dist.probs[outcome]),
        output_state=ComplexState(meas.basis()[:, outcome]),
    )


def sample_outcomes(meas: Measurement, v: ComplexState, shots: int, seed: int) -> np.ndarray:
    """Multinomial outcome counts of repeated identical preparations.

    Counts sum to shots; deterministic for a fixed seed.
    """
    if shots < 0:
        raise ValidationError("shots must be nonnegative")
    if shots > np.iinfo(np.int64).max:
        raise ValidationError(f"{shots} shots exceed the sampler's limit of 2**63 - 1")
    dist = outcome_distribution(meas, v)
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, dist.probs / dist.probs.sum())


@dataclass(frozen=True)
class SimulabilityResult:
    """Reproducibility audit of the closed arrangement.

    repeat_defect is max_i (1 - P(outcome i | re-fed output i)) under the
    audited output stage.  For the default audit (V = u^{-1}) tamper_defect
    reports the same figure for a deliberately wrong V, which must be large;
    witness is the outcome index exhibiting the worst defect.
    """

    passed: bool
    repeat_defect: float
    tamper_defect: float | None
    witness: int | None


def _repeat_defects(meas: Measurement, interaction: np.ndarray) -> np.ndarray:
    # Outcome i leaves the probe in exp(1j phases_i) e_i; the output stage
    # maps it to interaction[:, i] (up to that phase); re-feeding gives
    # outcome i with probability |(u @ out)_i|^2.
    refeed = meas.u @ interaction
    return 1.0 - np.abs(np.diag(refeed)) ** 2


def simulability_roundtrip(
    meas: Measurement,
    interaction: np.ndarray | None = None,
    tol: float = 1e-12,
) -> SimulabilityResult:
    """Audit reproducibility of the arrangement closed by an output stage V.

    With the default V = u^{-1} the audit checks both directions: every
    outcome reproduces itself with probability 1 within tol, and a tampered
    stage (a rotation applied after u^{-1}) demonstrably breaks
    reproducibility on a witnessed outcome.  Passing an explicit interaction
    audits only that stage.
    """
    if interaction is None:
        v_stage = meas.u.conj().T
    else:
        v_stage = require_unitary(interaction, STRUCTURAL_TOL)
        if v_stage.shape != meas.u.shape:
            raise DimensionMismatch("interaction stage has wrong dimension")

    defects = _repeat_defects(meas, v_stage)
    repeat_defect = float(defects.max())
    reproducible = repeat_defect <= tol

    if interaction is not None:
        witness = None if reproducible else int(defects.argmax())
        return SimulabilityResult(reproducible, repeat_defect, None, witness)

    # tamper: rotate the first two basis images by 45 degrees after u^{-1}
    c = math.cos(math.pi / 4.0)
    rot = np.eye(meas.n, dtype=complex)
    rot[0, 0] = rot[1, 1] = c
    rot[0, 1], rot[1, 0] = -c, c
    tampered = _repeat_defects(meas, meas.u.conj().T @ rot)
    tamper_defect = float(tampered.max())
    tamper_witness = int(tampered.argmax())
    broke = tamper_defect > 0.25
    return SimulabilityResult(
        passed=reproducible and broke,
        repeat_defect=repeat_defect,
        tamper_defect=tamper_defect,
        witness=tamper_witness,
    )
