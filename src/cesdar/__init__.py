"""Communication-efficient l0-penalized least squares.

A single-machine support-detection-and-root-finding solver, a simulated
M-machine cluster running the communication-efficient variant (with a
low-communication mode and exact per-message byte accounting), adaptive
sparsity tuning by HBIC, and a reproducible benchmark harness.
"""

from .config import ExperimentConfig, SolverConfig, TuningConfig
from .cluster import cesdar_fit, ecesdar_fit
from .data import (
    Dataset,
    SyntheticSpec,
    generate,
    generate_test,
    ingest_csv,
    load_cache,
    save_cache,
    split,
)
from .exceptions import (
    CesdarError,
    ConfigurationError,
    DegenerateColumnError,
    IngestError,
    SingularSystemError,
    WorkerUnavailableError,
)
from .metrics import bound_check, mutual_coherence, run_cell, src_constants, theory_bounds
from .sdar import FitResult, SparseCoefficients, esdar_fit, kkt_residual
from .tuning import acesdar_fit

__version__ = "0.1.0"
