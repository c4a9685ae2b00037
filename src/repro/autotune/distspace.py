"""The distributed-GEMM configuration space.

A :class:`DistributedSpace` enumerates :class:`~repro.distmodel.SummaMapping`
points — sub-grid size, Mt/Nt/Kt tiles, blocking-vs-pipelined broadcast
schedule and pipeline depth — as ordinary
:class:`~repro.autotune.space.Configuration` objects so every existing
search strategy, worker pool, cache and report works unchanged:

* ``num_blocks`` carries the PE count (``grid_p²``), ``threads_per_block``
  is 1 (one PE runs one tile serially), the three tile sizes ride on the
  program's own loops, and the family parameters (``grid_p``, ``schedule``,
  ``depth``) travel in :attr:`Configuration.extras`;
* pruning mirrors the single-device space's model-pruning role: the
  sub-grid must divide the problem and fit the fabric, tiles must divide
  their per-PE blocks, and the per-PE footprint (including the pipeline's
  ``depth + 1`` panel-buffer sets) must fit the PE memory;
* ``enumerate``'s per-geometry cap ranks tile vectors per
  (grid, schedule, depth) geometry by the distmodel's priced cycles —
  cheap, since the pricing is analytical;
* :meth:`DistributedSpace.describe` embeds the full
  :class:`~repro.machine.GridSpec`, which puts the grid target into every
  request fingerprint.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.compiler import CompilationSession
from repro.core.options import MappingOptions
from repro.distmodel.gemm import (
    SCHEDULES,
    SummaMapping,
    gemm_schedule,
    mapping_infeasible_reason,
)
from repro.ir.program import Program
from repro.machine.spec import GEFORCE_8800_GTX, GPUSpec, GridSpec
from repro.autotune.space import _DEFER, Configuration, ConfigurationSpace, SpaceOptions

#: pipeline depths the space considers under the pipelined schedule
DEPTH_CHOICES: Tuple[int, ...] = (1, 2, 4)


def divisors(value: int) -> List[int]:
    """All positive divisors of ``value``, ascending."""
    result = [d for d in range(1, int(math.isqrt(value)) + 1) if value % d == 0]
    return sorted(set(result + [value // d for d in result]))


def _spread(values: Sequence[int], count: int) -> List[int]:
    """Up to ``count`` values spread across a sorted sequence (ends included)."""
    if len(values) <= count:
        return list(values)
    picks = {values[round(i * (len(values) - 1) / (count - 1))] for i in range(count)}
    return sorted(picks)


def summa_mapping(
    config: Configuration, loop_order: Sequence[str]
) -> Optional[SummaMapping]:
    """The SUMMA mapping a configuration encodes, or ``None`` if single-device.

    ``loop_order`` names the program's (m, n, k) loops — the first two space
    loops carry Mt/Nt, the reduction loop carries Kt.
    """
    extras = config.extras_dict
    if "grid_p" not in extras:
        return None
    tiles = config.tile_dict
    loop_m, loop_n, loop_k = loop_order[0], loop_order[1], loop_order[2]
    return SummaMapping(
        grid_p=int(extras["grid_p"]),
        mt=int(tiles[loop_m]),
        nt=int(tiles[loop_n]),
        kt=int(tiles[loop_k]),
        schedule=str(extras.get("schedule", "pipelined")),
        depth=int(extras.get("depth", 1)),
    )


class DistributedSpace(ConfigurationSpace):
    """Enumerates footprint-pruned SUMMA mappings for one GEMM program."""

    def __init__(
        self,
        program: Program,
        grid: GridSpec,
        spec: GPUSpec = GEFORCE_8800_GTX,
        param_values: Optional[Mapping[str, int]] = None,
        base_options: Optional[MappingOptions] = None,
        space_options: Optional[SpaceOptions] = None,
        session: Optional[CompilationSession] = None,
    ) -> None:
        super().__init__(
            program,
            spec=spec,
            param_values=param_values,
            base_options=base_options,
            space_options=space_options,
            session=session,
        )
        self.grid = grid
        loops = list(self.analysis.loop_order)
        if len(loops) != 3:
            raise ValueError(
                f"the distributed-GEMM space needs a 3-loop program, "
                f"got loops {loops} in {program.name!r}"
            )
        self.loop_m, self.loop_n, self.loop_k = loops
        self.m = self.extents[self.loop_m]
        self.n = self.extents[self.loop_n]
        self.k = self.extents[self.loop_k]

    # -- mapping <-> configuration -----------------------------------------------------
    def configuration(self, mapping: SummaMapping) -> Configuration:
        return Configuration.make(
            num_blocks=mapping.grid_p * mapping.grid_p,
            threads_per_block=1,
            tile_sizes={
                self.loop_m: mapping.mt,
                self.loop_n: mapping.nt,
                self.loop_k: mapping.kt,
            },
            use_scratchpad=False,
            extras={
                "grid_p": mapping.grid_p,
                "schedule": mapping.schedule,
                "depth": mapping.depth,
            },
        )

    def mapping(self, config: Configuration) -> SummaMapping:
        mapped = summa_mapping(config, (self.loop_m, self.loop_n, self.loop_k))
        if mapped is None:
            raise ValueError(f"configuration {config.key()} carries no grid mapping")
        return mapped

    def _feasible(self, mapping: SummaMapping) -> bool:
        return mapping_infeasible_reason(self.m, self.n, self.k, mapping, self.grid) is None

    def priced_cycles(self, mapping: SummaMapping) -> float:
        return gemm_schedule(self.m, self.n, self.k, mapping, self.grid).total_cycles

    # -- enumeration -------------------------------------------------------------------
    def grid_choices(self) -> List[int]:
        """Sub-grid dimensions that divide every problem dimension."""
        shared = math.gcd(self.m, math.gcd(self.n, self.k))
        return [p for p in divisors(shared) if 2 <= p <= self.grid.grid_p]

    def seed_configuration(self) -> Configuration:
        """The canonical SUMMA baseline: largest feasible grid, blocking
        broadcasts, whole per-PE blocks as tiles (no pipeline buffers)."""
        if self._seed is None:
            for p in reversed(self.grid_choices()):
                mapping = SummaMapping(
                    grid_p=p,
                    mt=self.m // p,
                    nt=self.n // p,
                    kt=self.k // p,
                    schedule="blocking",
                    depth=1,
                )
                if self._feasible(mapping):
                    self._seed = self.configuration(mapping)
                    break
            else:
                raise ValueError(
                    f"no feasible SUMMA sub-grid for problem "
                    f"{self.m}x{self.n}x{self.k} on fabric "
                    f"{self.grid.grid_p}x{self.grid.grid_p}"
                )
        return self._seed

    def enumerate(self, limit_per_geometry: Any = _DEFER) -> List[Configuration]:
        """All feasible mappings, seed first, priced-ranked per geometry."""
        if limit_per_geometry is _DEFER:
            limit_per_geometry = self.space.tile_candidates_per_geometry
        configs: List[Configuration] = [self.seed_configuration()]
        seen = {configs[0]}
        for p in self.grid_choices():
            mt_choices = _spread(divisors(self.m // p), 3)
            nt_choices = _spread(divisors(self.n // p), 3)
            kt_choices = _spread(divisors(self.k // p), 3)
            for schedule in SCHEDULES:
                depths = (1,) if schedule == "blocking" else DEPTH_CHOICES
                for depth in depths:
                    ranked: List[Tuple[float, Configuration]] = []
                    for mt in mt_choices:
                        for nt in nt_choices:
                            for kt in kt_choices:
                                mapping = SummaMapping(
                                    grid_p=p, mt=mt, nt=nt, kt=kt,
                                    schedule=schedule, depth=depth,
                                )
                                if not self._feasible(mapping):
                                    continue
                                ranked.append(
                                    (self.priced_cycles(mapping), self.configuration(mapping))
                                )
                    ranked.sort(key=lambda entry: (entry[0], entry[1].key()))
                    if limit_per_geometry is not None:
                        ranked = ranked[:limit_per_geometry]
                    for _cycles, config in ranked:
                        if config not in seen:
                            seen.add(config)
                            configs.append(config)
        return configs

    def neighbours(self, config: Configuration) -> List[Configuration]:
        """One-knob moves: step a tile along its divisor chain, step the
        sub-grid, toggle the schedule, halve/double the pipeline depth."""
        mapping = self.mapping(config)
        moves: List[SummaMapping] = []
        p = mapping.grid_p

        def step(chain: List[int], value: int) -> List[int]:
            try:
                index = chain.index(value)
            except ValueError:
                return []
            return [chain[i] for i in (index - 1, index + 1) if 0 <= i < len(chain)]

        for mt in step(divisors(self.m // p), mapping.mt):
            moves.append(SummaMapping(p, mt, mapping.nt, mapping.kt, mapping.schedule, mapping.depth))
        for nt in step(divisors(self.n // p), mapping.nt):
            moves.append(SummaMapping(p, mapping.mt, nt, mapping.kt, mapping.schedule, mapping.depth))
        for kt in step(divisors(self.k // p), mapping.kt):
            moves.append(SummaMapping(p, mapping.mt, mapping.nt, kt, mapping.schedule, mapping.depth))
        for new_p in step(self.grid_choices(), p):
            # rescale each tile to the largest divisor of its new per-PE
            # block not exceeding the old tile
            def fit(block: int, tile: int) -> int:
                return max(d for d in divisors(block) if d <= tile)
            moves.append(
                SummaMapping(
                    new_p,
                    fit(self.m // new_p, mapping.mt),
                    fit(self.n // new_p, mapping.nt),
                    fit(self.k // new_p, mapping.kt),
                    mapping.schedule,
                    mapping.depth,
                )
            )
        other = "blocking" if mapping.schedule == "pipelined" else "pipelined"
        moves.append(
            SummaMapping(p, mapping.mt, mapping.nt, mapping.kt, other,
                         1 if other == "blocking" else mapping.depth)
        )
        if mapping.schedule == "pipelined":
            for depth in (mapping.depth // 2, mapping.depth * 2):
                if depth >= 1:
                    moves.append(
                        SummaMapping(p, mapping.mt, mapping.nt, mapping.kt,
                                     "pipelined", depth)
                    )

        feasible: List[Configuration] = []
        seen = {config}
        for move in moves:
            if not self._feasible(move):
                continue
            candidate = self.configuration(move)
            if candidate not in seen:
                seen.add(candidate)
                feasible.append(candidate)
        return feasible

    def describe(self) -> Dict[str, Any]:
        """Parent description plus the grid target and family axes.

        Embedding ``asdict(grid)`` is what puts the :class:`GridSpec` into
        the request fingerprint (and therefore into cache keys).
        """
        payload = super().describe()
        payload["family"] = "distributed-gemm"
        payload["grid"] = asdict(self.grid)
        payload["schedules"] = list(SCHEDULES)
        payload["depth_choices"] = list(DEPTH_CHOICES)
        payload["grid_choices"] = self.grid_choices()
        return payload
