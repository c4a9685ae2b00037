"""Declarative configuration space for empirical autotuning.

The paper's Section-4.3 model is a *pruning* device: the authors pick the
final mapping empirically on the machine from the model's shortlist.  This
module builds that shortlist as an explicit, enumerable space over

* memory-level (intra-tile) tile sizes per loop,
* the outer tile / thread-block count,
* threads per block,
* scratchpad staging on/off,

seeded by the relaxed optimum (sequential quadratic programming on the cost
model's exact gradient) of :func:`repro.tiling.tile_search.solve_relaxed` and
pruned by the :class:`DataMovementCostModel` footprint
(scratchpad capacity) and minimum-parallelism constraints, so the empirical
search never wastes an evaluation on a configuration the model can already
reject.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.compiler import CompilationSession
from repro.compiler.passes import block_memory_limit, memory_tiles, outer_tiles, tile_search_problem
from repro.core.options import MappingOptions
from repro.ir.program import Program
from repro.machine.spec import GEFORCE_8800_GTX, GPUSpec
from repro.tiling.cost_model import DataMovementCostModel
from repro.tiling.tile_search import (
    TileSearchProblem,
    candidate_neighbourhood,
    search_tile_sizes,
    solve_relaxed,
)


#: sentinel distinguishing "use the space's default cap" from an explicit
#: ``None`` (= unlimited) in :meth:`ConfigurationSpace.enumerate`
_DEFER = object()


@dataclass(frozen=True)
class Configuration:
    """One point of the mapping space — a fully explicit, replayable mapping.

    ``tile_sizes`` is a sorted tuple of ``(loop, size)`` pairs so the whole
    configuration is hashable and its string key is stable across runs.
    """

    num_blocks: int
    threads_per_block: int
    tile_sizes: Tuple[Tuple[str, int], ...]
    use_scratchpad: bool = True
    #: family parameters beyond the single-device knobs (e.g. a distributed
    #: mapping's ``grid_p`` / ``schedule`` / ``depth``), sorted for stable
    #: hashing; empty for every single-device configuration, so existing
    #: keys, cache entries and dict round-trips are unchanged
    extras: Tuple[Tuple[str, Any], ...] = ()

    @staticmethod
    def make(
        num_blocks: int,
        threads_per_block: int,
        tile_sizes: Mapping[str, int],
        use_scratchpad: bool = True,
        extras: Optional[Mapping[str, Any]] = None,
    ) -> "Configuration":
        return Configuration(
            num_blocks=int(num_blocks),
            threads_per_block=int(threads_per_block),
            tile_sizes=tuple(sorted((str(k), int(v)) for k, v in tile_sizes.items())),
            use_scratchpad=bool(use_scratchpad),
            extras=tuple(sorted((str(k), v) for k, v in (extras or {}).items())),
        )

    @property
    def tile_dict(self) -> Dict[str, int]:
        return dict(self.tile_sizes)

    @property
    def extras_dict(self) -> Dict[str, Any]:
        return dict(self.extras)

    def key(self) -> str:
        """Stable human-readable identity, used for tie-breaking and caching."""
        tiles = "_".join(f"{loop}{size}" for loop, size in self.tile_sizes)
        spm = "spm" if self.use_scratchpad else "nospm"
        base = f"b{self.num_blocks}.t{self.threads_per_block}.{tiles}.{spm}"
        if self.extras:
            base += "." + "_".join(f"{k}-{v}" for k, v in self.extras)
        return base

    def to_options(self, base: Optional[MappingOptions] = None) -> MappingOptions:
        """Materialise as pipeline options on top of ``base`` policy knobs."""
        base = base or MappingOptions()
        return base.with_overrides(
            num_blocks=self.num_blocks,
            threads_per_block=self.threads_per_block,
            tile_sizes=self.tile_dict,
            use_scratchpad=self.use_scratchpad,
        )

    @classmethod
    def from_options(cls, options: MappingOptions, tile_sizes: Mapping[str, int]) -> "Configuration":
        """The configuration a compiled kernel actually used."""
        return cls.make(
            num_blocks=options.num_blocks,
            threads_per_block=options.threads_per_block,
            tile_sizes=tile_sizes,
            use_scratchpad=options.use_scratchpad,
        )

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "num_blocks": self.num_blocks,
            "threads_per_block": self.threads_per_block,
            "tile_sizes": dict(self.tile_sizes),
            "use_scratchpad": self.use_scratchpad,
        }
        if self.extras:
            payload["extras"] = dict(self.extras)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Configuration":
        return cls.make(
            num_blocks=payload["num_blocks"],
            threads_per_block=payload["threads_per_block"],
            tile_sizes=payload["tile_sizes"],
            use_scratchpad=payload["use_scratchpad"],
            extras=payload.get("extras"),
        )


@dataclass(frozen=True)
class SpaceOptions:
    """Axes of the enumerable space (kept small by default; widen per need)."""

    thread_counts: Tuple[int, ...] = (64, 128, 256)
    block_counts: Tuple[int, ...] = (16, 32, 64)
    #: include ``False`` to let the tuner consider the no-scratchpad baseline
    scratchpad_choices: Tuple[bool, ...] = (True,)
    #: per launch geometry, keep this many model-ranked tile vectors
    #: (``None`` = keep every feasible vector; used by the exhaustive strategy)
    tile_candidates_per_geometry: Optional[int] = 4

    def describe(self) -> Dict[str, Any]:
        """Stable JSON view, a fingerprint ingredient."""
        return {
            "thread_counts": list(self.thread_counts),
            "block_counts": list(self.block_counts),
            "scratchpad_choices": list(self.scratchpad_choices),
            "tile_candidates_per_geometry": self.tile_candidates_per_geometry,
        }


class ConfigurationSpace:
    """Enumerates model-pruned mapping configurations for one program."""

    def __init__(
        self,
        program: Program,
        spec: GPUSpec = GEFORCE_8800_GTX,
        param_values: Optional[Mapping[str, int]] = None,
        base_options: Optional[MappingOptions] = None,
        space_options: Optional[SpaceOptions] = None,
        session: Optional[CompilationSession] = None,
    ) -> None:
        self.program = program
        self.spec = spec
        self.base_options = base_options or MappingOptions()
        self.space = space_options or SpaceOptions()
        #: the staged-compiler session whose frozen analysis artifact this
        #: space shares
        self.session = session or CompilationSession(
            program, spec=spec, options=self.base_options, param_values=param_values
        )
        analysis_artifact = self.session.analysis()
        self.binding = dict(analysis_artifact.binding)
        self.analysis = analysis_artifact.analysis
        self.extents = dict(analysis_artifact.extents)
        self.lowers = dict(analysis_artifact.lowers)
        self._problems: Dict[Tuple[int, int], TileSearchProblem] = {}
        self._relaxations: Dict[Tuple[int, int], Dict[str, float]] = {}
        self._seed: Optional[Configuration] = None

    # -- model plumbing ----------------------------------------------------------------
    def _problem(self, num_blocks: int, threads: int) -> TileSearchProblem:
        """The Section-4.3 problem of one launch geometry (memoised)."""
        key = (num_blocks, threads)
        if key not in self._problems:
            self._problems[key] = tile_search_problem(
                self.program, self.spec, self.base_options, self.session.analysis(),
                num_blocks, threads,
            )
        return self._problems[key]

    def cost_model(self, num_blocks: int, threads: int) -> DataMovementCostModel:
        """The Section-4.3 model for one launch geometry (memoised)."""
        return self._problem(num_blocks, threads).cost_model

    def memory_limit(self, num_blocks: int) -> int:
        return block_memory_limit(self.session.analysis(), self.spec, num_blocks)

    def _relaxed(self, num_blocks: int, threads: int) -> Dict[str, float]:
        """The relaxed optimum of one geometry's problem (memoised: the seed's
        search and :meth:`tile_vectors` share it)."""
        key = (num_blocks, threads)
        if key not in self._relaxations:
            self._relaxations[key] = solve_relaxed(self._problem(num_blocks, threads))
        return self._relaxations[key]

    # -- enumeration ------------------------------------------------------------------
    def seed_configuration(self) -> Configuration:
        """The configuration the one-shot seed pipeline would pick (memoised).

        The tiling pass's rule under the base options — their explicit memory
        tiles, else the Section-4.3 search's — decided on this space's
        memoised model, so no compiler pass runs: the seed is mapped once,
        when it is evaluated, as the empirical baseline every tuning report
        compares against.
        """
        if self._seed is None:
            options = self.base_options
            art = self.session.analysis()
            geometry = (options.num_blocks, options.threads_per_block)
            tiles, _ = memory_tiles(
                options.tile_sizes,
                art,
                outer_tiles(art, options.num_blocks),
                lambda: search_tile_sizes(self._problem(*geometry), self._relaxed(*geometry)),
            )
            self._seed = Configuration.from_options(options, tiles)
        return self._seed

    def tile_vectors(
        self,
        num_blocks: int,
        threads: int,
        use_scratchpad: bool,
        limit: Optional[int],
    ) -> List[Dict[str, int]]:
        """Model-pruned integer tile vectors for one launch geometry.

        Candidates come from the integer neighbourhood of the relaxed optimum;
        vectors violating the scratchpad capacity or minimum-parallelism
        constraint are dropped, the rest ranked by modelled movement cost.
        """
        problem = self._problem(num_blocks, threads)
        model, limit_bytes = problem.cost_model, problem.memory_limit_bytes
        neighbourhood = candidate_neighbourhood(problem, self._relaxed(num_blocks, threads))
        loops = model.tile_loops
        ranked: List[Tuple[float, Dict[str, int]]] = []
        for combination in itertools.product(*[neighbourhood[loop] for loop in loops]):
            sizes = dict(zip(loops, combination))
            if model.work_per_tile(sizes) < threads:
                continue
            if use_scratchpad and model.footprint_bytes(sizes) > limit_bytes:
                continue
            ranked.append((model.movement_cost(sizes), sizes))
        ranked.sort(key=lambda entry: (entry[0], tuple(sorted(entry[1].items()))))
        if limit is not None:
            ranked = ranked[:limit]
        return [sizes for _cost, sizes in ranked]

    def enumerate(self, limit_per_geometry: Any = _DEFER) -> List[Configuration]:
        """All configurations of the space, model-pruned, in deterministic order.

        ``limit_per_geometry`` overrides the space's per-geometry tile-vector
        cap: omit it to use :attr:`SpaceOptions.tile_candidates_per_geometry`,
        pass an ``int`` to cap, or ``None`` to keep every feasible vector
        (the exhaustive strategy).  The seed configuration is always the
        first element, so every search strategy evaluates the baseline.
        """
        if limit_per_geometry is _DEFER:
            limit_per_geometry = self.space.tile_candidates_per_geometry
        configs: List[Configuration] = [self.seed_configuration()]
        seen = {configs[0]}
        for num_blocks in self.space.block_counts:
            for threads in self.space.thread_counts:
                if threads > self.spec.max_threads_per_block:
                    continue
                for use_spm in self.space.scratchpad_choices:
                    for sizes in self.tile_vectors(
                        num_blocks, threads, use_spm, limit_per_geometry
                    ):
                        config = Configuration.make(num_blocks, threads, sizes, use_spm)
                        if config not in seen:
                            seen.add(config)
                            configs.append(config)
        return configs

    def neighbours(self, config: Configuration) -> List[Configuration]:
        """One-knob moves from ``config`` (for hill-climbing strategies).

        Each move halves or doubles one tile size, the thread count, or the
        block count, or toggles scratchpad staging; moves violating the
        capacity / parallelism constraints are filtered by the model.
        """
        tiles = config.tile_dict
        moves: List[Configuration] = []

        for loop, size in tiles.items():
            for factor in (0.5, 2.0):
                new_size = max(1, min(int(size * factor), self.extents.get(loop, size)))
                if new_size == size:
                    continue
                new_tiles = dict(tiles)
                new_tiles[loop] = new_size
                moves.append(
                    Configuration.make(
                        config.num_blocks, config.threads_per_block, new_tiles,
                        config.use_scratchpad,
                    )
                )
        for threads in (config.threads_per_block // 2, config.threads_per_block * 2):
            if threads >= 1 and threads <= self.spec.max_threads_per_block:
                moves.append(
                    Configuration.make(
                        config.num_blocks, threads, tiles, config.use_scratchpad
                    )
                )
        for blocks in (config.num_blocks // 2, config.num_blocks * 2):
            if blocks >= 1:
                moves.append(
                    Configuration.make(
                        blocks, config.threads_per_block, tiles, config.use_scratchpad
                    )
                )
        if len(self.space.scratchpad_choices) > 1:
            moves.append(
                Configuration.make(
                    config.num_blocks, config.threads_per_block, tiles,
                    not config.use_scratchpad,
                )
            )

        feasible: List[Configuration] = []
        seen = {config}
        for move in moves:
            if move in seen:
                continue
            seen.add(move)
            model = self.cost_model(move.num_blocks, move.threads_per_block)
            sizes = {loop: move.tile_dict.get(loop, 1) for loop in model.tile_loops}
            if model.work_per_tile(sizes) < move.threads_per_block:
                continue
            if move.use_scratchpad and model.footprint_bytes(sizes) > self.memory_limit(
                move.num_blocks
            ):
                continue
            feasible.append(move)
        return feasible

    def describe(self) -> Dict[str, Any]:
        """Stable description of the space for cache fingerprinting."""
        return {
            "space_options": self.space.describe(),
            "loop_order": list(self.analysis.loop_order),
            "extents": {k: self.extents[k] for k in sorted(self.extents)},
        }
