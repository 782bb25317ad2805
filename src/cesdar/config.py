"""Experiment and solver configuration records plus their JSON round trip."""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .exceptions import ConfigurationError

__all__ = ["SolverConfig", "TuningConfig", "ExperimentConfig"]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of one support-detection-and-root-finding run.

    sparsity ``T`` is the active-set size, ``tau`` in (0, 1] balances the
    primal iterate against the dual step inside the detection keys.
    """

    sparsity: int
    tau: float = 0.5
    max_iter: int = 50

    def __post_init__(self):
        if self.sparsity < 1:
            raise ConfigurationError(f"sparsity must be >= 1, got {self.sparsity}")
        if not 0 < self.tau <= 1:
            raise ConfigurationError(f"tau must lie in (0, 1], got {self.tau}")
        if self.max_iter < 1:
            raise ConfigurationError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class TuningConfig:
    """Sweep settings for the adaptive (HBIC-scored) variant."""

    step: int = 1
    machines: int = 1
    j_override: int | None = None
    tau: float = 0.5
    max_iter: int = 50

    def __post_init__(self):
        if self.step < 1:
            raise ConfigurationError(f"step must be a positive integer, got {self.step}")
        if self.machines < 1:
            raise ConfigurationError(f"machines must be >= 1, got {self.machines}")
        if self.j_override is not None and self.j_override < 1:
            raise ConfigurationError("j_override must be >= 1 when set")
        SolverConfig(sparsity=1, tau=self.tau, max_iter=self.max_iter)  # its tau, max_iter checks


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation cell: data shape, algorithm knobs, and replication."""

    algorithm: str = "cesdar"
    n: int = 1000
    p: int = 100
    s: int = 10
    sparsity: int = 10
    machines: int = 1
    tau: float = 0.5
    signal_ratio: float = 20.0
    noise_sd: float = 1.0
    n_test: int = 1000
    replicates: int = 100
    base_seed: int = 0
    max_iter: int = 50
    step: int = 1
    example: int | None = None
    scale: float = 1.0
    label: str = ""

    _ALGOS = ("esdar", "cesdar", "ecesdar", "acesdar")

    def __post_init__(self):
        if self.algorithm not in self._ALGOS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; expected one of {self._ALGOS}"
            )
        for key in ("n_test", "replicates"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"{key} must be >= 1, got {getattr(self, key)}")
        self.spec(self.base_seed)  # n, p, s, signal_ratio and noise_sd
        if not 1 <= self.s <= self.p - 1:
            raise ConfigurationError(f"s={self.s} must lie in [1, p-1={self.p - 1}]: both "
                                     "discovery rates need a true and a null coordinate")
        if self.machines < 1 or self.machines > self.n:
            raise ConfigurationError(f"machines must lie in [1, n], got {self.machines}")
        if self.algorithm == "esdar" and self.machines != 1:
            raise ConfigurationError(f"esdar runs on one machine, got machines={self.machines}")
        if self.algorithm == "acesdar":
            self._check_path()
        if self.algorithm != "acesdar" and self.sparsity > self.p:
            raise ConfigurationError(f"sparsity {self.sparsity} exceeds p={self.p}")
        # sparsity, tau, max_iter and step: checked here, not once per trial
        self.solver_config()
        self.tuning_config()

    def _check_path(self) -> None:
        """Refuse an ACESDAR cell whose sparsity cap on floor(n/M) rows and p
        lies below ``step``: every trial would fail on its empty path."""
        from .tuning import max_sparsity_cap  # tuning imports this module
        rows = self.n // self.machines
        try:
            cap = min(max_sparsity_cap(rows, self.p), self.p)
        except ConfigurationError:  # too few rows for the cap formula
            cap = 0
        if cap < self.step:
            raise ConfigurationError(
                f"acesdar has an empty path: floor(n/M)={rows} and p={self.p} give no "
                f"sparsity cap of at least step={self.step} (the cap needs floor(n/M) >= 16)"
            )

    def spec(self, seed: int):
        """The ``SyntheticSpec`` of this cell's replicate drawn from ``seed``."""
        from .data import SyntheticSpec  # data imports this module
        return SyntheticSpec(n=self.n, p=self.p, s=self.s, signal_ratio=self.signal_ratio,
                             noise_sd=self.noise_sd, seed=seed)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(sparsity=self.sparsity, tau=self.tau, max_iter=self.max_iter)

    def tuning_config(self) -> TuningConfig:
        return TuningConfig(
            step=self.step, machines=self.machines, tau=self.tau, max_iter=self.max_iter
        )

    def to_json(self) -> str:
        data = dataclasses.asdict(self)
        return json.dumps(data, sort_keys=True, separators=(", ", ": "))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigurationError("config JSON must be a flat object")
        known = {f.name: f.type for f in dataclasses.fields(cls)}  # type: annotation text
        unknown = set(data) - set(known)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            types, expected = _JSON_TYPES[known[key]]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ConfigurationError(f"config key {key!r} must be {expected}, "
                                         f"got {json.dumps(value)}")
        return cls(**data)


# The JSON values each field annotation accepts; a bool (a Python int) fits none.
_JSON_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"),
               "str": (str, "a string"), "int | None": ((int, type(None)), "an integer or null")}
