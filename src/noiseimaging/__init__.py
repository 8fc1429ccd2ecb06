"""Twin-beam noise imaging simulator.

Closed-form noise of squeezed pairs behind loss, binary mask/LO scenes on a
pixel grid, spectrum-analyzer trace statistics, and the estimation pipeline
comparing classical (single-beam excess noise) against quantum (twin-beam
difference noise) imaging sensitivity.
"""

from .config import ConfigError, RunConfig, load_config, save_config
from .estimate import (
    AngleCalibration,
    CurvePoint,
    DeviationRecord,
    EnhancementResult,
    EstimationError,
    EstimationResult,
    NoiseCurve,
    OverlapUncertainty,
    alphabet_gun,
    angle_enhancement,
    delta_o_table,
    enhancement,
    estimate_sensitivity,
    fit_noise_curve,
    overlap_uncertainty,
)
from .noise import (
    NoiseMeasurement,
    NoiseModelError,
    TECH_CLASSICAL,
    TECH_QUANTUM,
    TwinBeamParams,
    calibrate_r,
    classical_noise,
    detected_noise_floor,
    lo_power_check,
    quantum_noise,
)
from .scene import (
    Bitmap,
    CellDecomposition,
    CoherenceGrid,
    SceneError,
    bowtie,
    decompose,
    full_bitmap,
    glyph,
    load_font,
    load_pbm,
    save_pbm,
    single_cell_decomposition,
)
from .traces import (
    AcquisitionConfig,
    Trace,
    TraceError,
    derive_seed,
    measure_series,
    seeded_config,
    segment_stats,
    simulate_trace,
    trace_to_csv,
)

__version__ = "0.1.0"
