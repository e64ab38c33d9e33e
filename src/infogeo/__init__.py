"""Information geometry of finite probability spaces and its quantum structure.

Modules
-------
simplex      distributions, the information metric, statistical distance, KL
bayes        two-coin Bayesian distinguishability and information gain
statespace   hypersphere states over paired events; polar and complex charts
transforms   orthogonal maps, commutation classification, unitary conversion
measurement  unitary measurement arrangements and Born statistics
distmax      maximal distinguishability over measurements vs Hilbert angle
cli          seeded verification batteries emitting JSON/CSV reports
"""

from .bayes import (
    CoinExperiment,
    EntropyFn,
    MonteCarloSummary,
    PosteriorReport,
    exact_posterior,
    expansion_log_ratio,
    expected_log_ratio,
    info_gain_approx,
    info_gain_exact,
    log_likelihood_ratio,
    monte_carlo_gain,
    shannon_entropy,
)
from .distmax import (
    DistinguishabilityResult,
    certify_upper_bound,
    hilbert_distance,
    maximize_statistical_distance,
    unitary_from_params,
)
from .errors import (
    AbsoluteContinuityViolation,
    DimensionMismatch,
    EmptyGrid,
    ImpossibleOutcome,
    InfoGeoError,
    NotOrthogonal,
    NotUnitary,
    OddDimension,
    SingularMetric,
    ValidationError,
    WrongType,
    ZeroLikelihoodBoth,
)
from .measurement import (
    Measurement,
    MeasurementRecord,
    SimulabilityResult,
    apply_measurement,
    outcome_distribution,
    sample_outcomes,
    simulability_roundtrip,
)
from .simplex import (
    ProbDist,
    TangentVec,
    fisher_quadratic,
    kl_divergence,
    sqrt_embed,
    statistical_distance,
)
from .statespace import (
    DEFAULT_GAUGE,
    ComplexState,
    EventDist,
    GaugeConvention,
    MeasureInvarianceResult,
    PolarState,
    RealState,
    born_probs,
    coarse_grain,
    from_complex,
    from_polar,
    gauge_shift,
    measure_invariance_check,
    polar_metric_quadratic,
    polar_pushforward,
    random_complex_state,
    random_real_state,
    state_event_probs,
    to_complex,
    to_polar,
)
from .transforms import (
    Classification,
    ProbeResult,
    TransformKind,
    classify,
    complex_structure,
    from_antiunitary,
    from_unitary,
    gauge_invariance_probe,
    random_orthogonal,
    random_unitary,
    require_orthogonal,
    require_unitary,
    to_antiunitary,
    to_unitary,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
