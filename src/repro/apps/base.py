"""Common shape of the three benchmark applications."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.duplicate import NetworkBlueprint
from repro.rtc.pjd import PJD
from repro.rtc.sizing import SizingResult, size_duplicated_network


@dataclass(frozen=True)
class AppScale:
    """Experiment scale knobs.

    ``paper_scale=True`` uses the paper's geometry (320x240 frames, faults
    after ~18,000/20,000 tokens); the default is a scaled-down variant
    that exercises identical code paths in a fraction of the host time
    (substitution documented in DESIGN.md).
    """

    paper_scale: bool = False

    @property
    def frame_size(self) -> Tuple[int, int]:
        """(width, height) of video frames."""
        return (320, 240) if self.paper_scale else (96, 72)

    @property
    def warmup_tokens(self) -> int:
        """Tokens processed before fault injection."""
        return 18000 if self.paper_scale else 600


class StreamingApplication:
    """Base class: Table 1 models + blueprint construction.

    Subclasses define the class attributes below and implement
    :meth:`blueprint`.

    Attributes
    ----------
    name:
        Application name (used in reports).
    producer_model, consumer_model:
        PJD models of the input and output interface (Table 1).
    replica_input_models, replica_output_models:
        Per-replica consumption/production models; index 0 is replica
        ``R_1``, index 1 is ``R_2`` (the design-diversity variant).
    token_bytes_in, token_bytes_out:
        Nominal token sizes at the replicator and selector (drives the
        memory-overhead rows and the SCC latency model).
    app_code_bytes:
        Modelled application code footprint (denominator of the paper's
        memory-overhead percentages).
    """

    name: str = "app"
    #: True on copies produced by :meth:`minimized` — lets a run
    #: description (:mod:`repro.exec.taskspec`) reconstruct the app.
    is_minimized: bool = False
    producer_model: PJD
    consumer_model: PJD
    replica_input_models: List[PJD]
    replica_output_models: List[PJD]
    token_bytes_in: int = 0
    token_bytes_out: int = 0
    app_code_bytes: int = 1

    def __init__(self, scale: AppScale = AppScale(), seed: int = 0) -> None:
        self.scale = scale
        self.seed = seed

    # -- analysis ------------------------------------------------------------

    def sizing(self, horizon: Optional[float] = None) -> SizingResult:
        """Run the Section 3.4 computation for this application."""
        return size_duplicated_network(
            self.producer_model,
            self.replica_input_models,
            self.replica_output_models,
            self.consumer_model,
            horizon=horizon,
        )

    def minimized(self) -> "StreamingApplication":
        """A jitter-minimised copy (the Table 3 comparison setup)."""
        clone = type(self)(scale=self.scale, seed=self.seed)
        clone.producer_model = self.producer_model.minimized()
        clone.consumer_model = self.consumer_model.minimized()
        clone.replica_input_models = [
            m.minimized() for m in self.replica_input_models
        ]
        clone.replica_output_models = [
            m.minimized() for m in self.replica_output_models
        ]
        clone.is_minimized = True
        return clone

    @property
    def period_ms(self) -> float:
        """Application period (the consumer's)."""
        return self.consumer_model.period

    # -- construction ----------------------------------------------------------

    def blueprint(self, token_count: int, consumer_tokens: int,
                  seed: Optional[int] = None) -> NetworkBlueprint:
        """Build the blueprint for a run of ``token_count`` input tokens.

        ``consumer_tokens`` is the number of reads the consumer issues;
        experiments set it to ``token_count + priming`` so finite runs
        drain cleanly (see the experiment harness).
        """
        raise NotImplementedError

    def table1_row(self) -> dict:
        """The application's Table 1 parameters, rendered as a dict."""
        return {
            "application": self.name,
            "producer": str(self.producer_model),
            "replica1_in": str(self.replica_input_models[0]),
            "replica2_in": str(self.replica_input_models[1]),
            "replica1_out": str(self.replica_output_models[0]),
            "replica2_out": str(self.replica_output_models[1]),
            "consumer": str(self.consumer_model),
        }
