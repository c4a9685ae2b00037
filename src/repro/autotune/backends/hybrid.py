"""The hybrid backend: model-pruned search, measured re-ranking.

This is the paper's actual empirical loop.  Section 4.3's analytical model is
explicitly a *pruning device*: it ranks the mapping space cheaply, and the
final configuration is chosen by running the best few candidates on the
machine.  ``hybrid:model>measure-c?top=K`` reproduces exactly that division
of labour on the host's timed C; ``hybrid:model>measure-py?top=K`` re-ranks
by one counted run of each, priced on the model (every block's work instead
of a representative tile's):

* during the search, every candidate is priced by the **primary** backend
  (the model) — cheap, so strategies can explore broadly;
* after the search, the **secondary** (measured) backend re-measures the
  top-``K`` surviving candidates (plus the baseline, so reported speedups
  compare measured-to-measured), and the winner is picked **only among the
  measured results** — model milliseconds and measured milliseconds are
  different prices and must never be compared directly.

The winning entry's ``measurement.kind`` is therefore the secondary's
(``"measured-py"`` / ``"measured-c"``): a hybrid-tuned cache entry always
records that its best configuration was chosen by measurement.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.compiler import CompilationSession
from repro.machine.spec import GPUSpec

from repro.autotune.backends.base import (
    EvaluationBackend,
    Measurement,
    parse_backend_uri,
    register_backend,
    split_options,
)


@register_backend
class HybridBackend(EvaluationBackend):
    """Model prunes the space; a measured backend re-ranks the top-K."""

    scheme = "hybrid"
    # every hybrid measurement is performed by a leaf backend, which
    # instruments itself; instrumenting here too would double-count
    _instrument_measure = False

    def __init__(
        self,
        primary: EvaluationBackend,
        secondary: EvaluationBackend,
        top: int = 8,
    ) -> None:
        super().__init__()
        if isinstance(primary, HybridBackend) or isinstance(secondary, HybridBackend):
            raise ValueError("hybrid backends do not nest")
        if top < 1:
            raise ValueError(f"top must be positive, got {top}")
        self.primary = primary
        self.secondary = secondary
        self.top = top

    @property
    def kind(self) -> str:  # type: ignore[override]
        """The winner's provenance is the secondary (measuring) backend's."""
        return self.secondary.kind

    @property
    def deterministic(self) -> bool:
        return getattr(self.primary, "deterministic", True) and getattr(
            self.secondary, "deterministic", True
        )

    @property
    def measures_wall_clock(self) -> bool:  # type: ignore[override]
        """Only the *search-phase* (primary) measurement gates parallelism.

        :meth:`finalize` runs the secondary serially whatever it measures —
        so a model-primary hybrid keeps parallel search.
        """
        return getattr(self.primary, "measures_wall_clock", False)

    # -- URI construction --------------------------------------------------------
    @classmethod
    def from_uri_rest(cls, rest: str) -> "HybridBackend":
        """Parse ``primary>secondary[?top=K]`` (e.g. ``model>measure-py?top=8``)."""
        body, _sep, query = rest.partition("?")
        primary_uri, sep, secondary_uri = body.partition(">")
        if not sep or not primary_uri.strip() or not secondary_uri.strip():
            raise ValueError(
                f"hybrid backend must look like 'hybrid:PRIMARY>SECONDARY[?top=K]', "
                f"got 'hybrid:{rest}'"
            )
        options = split_options(query.replace("&", ",")) if query else {}
        unknown = set(options) - {"top"}
        if unknown:
            raise ValueError(
                f"backend 'hybrid' got unknown options {sorted(unknown)}; available: ['top']"
            )
        try:
            top = int(options.get("top", 8))
        except ValueError:
            raise ValueError(
                f"hybrid top must be an integer, got {options['top']!r}"
            ) from None
        return cls(
            primary=parse_backend_uri(primary_uri.strip()),
            secondary=parse_backend_uri(secondary_uri.strip()),
            top=top,
        )

    @classmethod
    def from_options(cls, options: Mapping[str, str]) -> "HybridBackend":
        raise ValueError(
            "hybrid backends are built from 'hybrid:PRIMARY>SECONDARY[?top=K]'"
        )

    # -- lifecycle ---------------------------------------------------------------
    def availability(self) -> Optional[str]:
        return self.primary.availability() or self.secondary.availability()

    def prepare(self, session: CompilationSession, spec: GPUSpec, seed: int = 0) -> None:
        super().prepare(session, spec, seed=seed)
        self.primary.prepare(session, spec, seed=seed)
        self.secondary.prepare(session, spec, seed=seed)

    # -- measurement -------------------------------------------------------------
    def _measure(self, configuration: Any) -> Measurement:
        # per-candidate search costing is the primary's (cheap) job
        return self.primary.measure(configuration)

    # -- the re-ranking pass -------------------------------------------------------
    def finalize(self, results: List[Any], evaluator: Any, ensure: Sequence[Any] = ()) -> List[Any]:
        """Re-measure the top-``K`` primary-ranked survivors with the secondary.

        ``ensure`` configurations (the seed/baseline) are re-measured too when
        they were feasible, so the report's speedup compares measured against
        measured.  Everything else keeps its primary (model) measurement and
        stays in the result list for inspection — :meth:`select_best` never
        lets an un-measured candidate win.  A survivor whose spot-check
        failed (``correct is False``) is never re-measured: finalizing again
        after the evaluator rejects a winner promotes the next-ranked one,
        and the measurement memo re-measures only that newcomer.

        Re-measurement is deliberately **serial**, whatever parallelism the
        surrounding search used: a wall-clock secondary (``measure-c:``)
        would see K concurrent timed runs contend for the same cores,
        skewing exactly the medians the re-ranking exists to trust.  The
        cost is bounded by ``top`` (+1 baseline), not by the space.
        """
        from repro.autotune.evaluate import result_from_measurement

        candidates = [r for r in results if r.feasible and r.correct is not False]
        ranked = sorted(candidates, key=lambda r: (r.time_ms, r.configuration.key()))
        chosen = {r.configuration for r in ranked[: self.top]}
        chosen.update(
            r.configuration for r in candidates if r.configuration in set(ensure)
        )

        finalized: List[Any] = []
        for result in results:
            if result.configuration not in chosen:
                finalized.append(result)
                continue
            measurement = self.secondary.measure(result.configuration)
            measurement.metadata["model_time_ms"] = result.time_ms
            remeasured = result_from_measurement(result.configuration, measurement)
            # preserved from the primary pass: a verdict, and the mapped
            # geometry when the measurement carries none of its own
            remeasured.correct = result.correct
            if not remeasured.shared_bytes_per_block:
                remeasured.shared_bytes_per_block = result.shared_bytes_per_block
            finalized.append(remeasured)
        return finalized

    def select_best(self, results: List[Any]) -> Any:
        """The fastest *measured* result — never a model-priced survivor."""
        from repro.autotune.evaluate import best_result

        measured = [
            r
            for r in results
            if r.measurement is not None and r.measurement.kind == self.secondary.kind
        ]
        return best_result(measured if measured else results)

    def check(self, configuration: Any) -> Optional[bool]:
        """The measuring backend ran the winner, so it is the one to check it."""
        return self.secondary.check(configuration)

    # -- identity ----------------------------------------------------------------
    def signature(self) -> Dict[str, Any]:
        return {
            "scheme": self.scheme,
            "primary": self.primary.signature(),
            "secondary": self.secondary.signature(),
            "top": self.top,
        }

    def uri(self) -> str:
        # full sub-backend URIs (options included) so the recorded provenance
        # round-trips through parse_backend_uri to the same signature
        return f"hybrid:{self.primary.uri()}>{self.secondary.uri()}?top={self.top}"

    def describe(self) -> str:
        return (
            f"{self.primary.scheme} prunes the space, {self.secondary.scheme} "
            f"re-ranks the top-{self.top} (the paper's empirical loop)"
        )
