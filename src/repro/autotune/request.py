"""What a tuning request is, and how a command line becomes one.

A :class:`TuneRequest` names a *registered* kernel (programs never travel
over the wire), its problem sizes and the knobs of
:func:`repro.autotune.autotune`.  :meth:`TuneRequest.problem` materialises
the :class:`~repro.autotune.session.TuningProblem` to tune;
:meth:`TuneRequest.resolve` additionally computes its cache fingerprint — the
same key :func:`~repro.autotune.session.tune` stores reports under.

It is the JSON body of the tuning service's ``POST /tune``
(:mod:`repro.service.protocol` re-exports it), and it is also what
``python -m repro.autotune KERNEL`` tunes: :func:`add_request_arguments`
defines the request flags both command lines share, and
:func:`request_from_args` turns them into a request, so one command line
names one cache entry whichever CLI parsed it.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Sequence

from repro.core.options import MappingOptions
from repro.kernels.registry import get_kernel
from repro.machine.spec import GEFORCE_8800_GTX, GPUSpec
from repro.autotune.backends import parse_backend_uri
from repro.autotune.search import STRATEGIES
from repro.autotune.session import TuningProblem
from repro.autotune.space import SpaceOptions

__all__ = [
    "PRIORITY_CLASSES",
    "ResolvedRequest",
    "TuneRequest",
    "add_request_arguments",
    "parse_sizes",
    "request_from_args",
]

#: keys accepted in a request's ``space`` payload
_SPACE_KEYS = (
    "thread_counts",
    "block_counts",
    "scratchpad_choices",
    "tile_candidates_per_geometry",
)

#: request priority classes, most urgent first (the wire values of
#: ``TuneRequest.priority``)
PRIORITY_CLASSES = ("high", "normal", "low")


@dataclass
class TuneRequest:
    """One tuning request, as a command line names it and the wire carries it."""

    kernel: str
    sizes: Dict[str, int] = field(default_factory=dict)
    strategy: str = "pruned"
    seed: int = 0
    #: parallel-evaluation fan-out *inside* the worker executing this job
    #: (a process worker forks it; a thread worker evaluates serially)
    eval_workers: int = 1
    check_correctness: bool = False
    #: optional :meth:`MappingOptions.to_dict` payload
    options: Optional[Dict[str, Any]] = None
    #: optional subset of :class:`SpaceOptions` fields
    space: Optional[Dict[str, Any]] = None
    #: evaluation-backend URI (``model:``, ``measure-py:...``,
    #: ``measure-c:...``, ``hybrid:model>measure-py?top=K``)
    backend: str = "model:"
    #: collect a span trace of the tuning run (shipped back in the job
    #: payload).  Observability only — deliberately NOT a fingerprint
    #: ingredient: a traced and an untraced request share one cache entry.
    trace: bool = False
    #: scheduling class (``high`` | ``normal`` | ``low``) — decides queue
    #: order behind a busy worker pool, nothing else.  Like ``trace``,
    #: deliberately NOT a fingerprint ingredient: a high- and a low-priority
    #: submission of the same work share one cache entry and one job.
    priority: str = "normal"

    def __post_init__(self) -> None:
        if not isinstance(self.kernel, str) or not self.kernel:
            raise ValueError(f"kernel must be a non-empty string, got {self.kernel!r}")
        if not isinstance(self.sizes, Mapping):
            raise ValueError(f"sizes must be a mapping, got {self.sizes!r}")
        for name, value in self.sizes.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(
                    f"size {name!r} must be an integer, got {value!r}"
                )
        self.sizes = {str(k): int(v) for k, v in self.sizes.items()}
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; available: {sorted(STRATEGIES)}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.check_correctness, bool):
            # a truthy string like "false" must not silently enable checking
            # (and leak into the fingerprint, splitting the cache)
            raise ValueError(
                f"check_correctness must be a boolean, got {self.check_correctness!r}"
            )
        if not isinstance(self.eval_workers, int) or self.eval_workers < 1:
            raise ValueError(f"eval_workers must be a positive integer, got {self.eval_workers!r}")
        if not isinstance(self.trace, bool):
            # a truthy string like "false" must not silently enable tracing
            raise ValueError(f"trace must be a boolean, got {self.trace!r}")
        if self.priority not in PRIORITY_CLASSES:
            raise ValueError(
                f"priority must be one of {PRIORITY_CLASSES}, got {self.priority!r}"
            )
        # Parse the backend URI eagerly: a typo must 400 at submission, not
        # error a worker.  (Host *availability* — e.g. a missing C toolchain —
        # is deliberately not checked here: the worker raising
        # BackendUnavailable reports it per job.)
        parse_backend_uri(self.backend)
        if self.space is not None:
            unknown = set(self.space) - set(_SPACE_KEYS)
            if unknown:
                raise ValueError(
                    f"unknown space fields {sorted(unknown)}; available: {list(_SPACE_KEYS)}"
                )
            for key in ("thread_counts", "block_counts"):
                values = self.space.get(key)
                if values is None:
                    continue
                # a JSON string would otherwise iterate character-by-character
                if not isinstance(values, (list, tuple)) or not all(
                    isinstance(v, int) and not isinstance(v, bool) for v in values
                ):
                    raise ValueError(f"space.{key} must be a list of integers, got {values!r}")
            choices = self.space.get("scratchpad_choices")
            if choices is not None and (
                not isinstance(choices, (list, tuple))
                or not all(isinstance(v, bool) for v in choices)
            ):
                raise ValueError(
                    f"space.scratchpad_choices must be a list of booleans, got {choices!r}"
                )
            limit = self.space.get("tile_candidates_per_geometry")
            if limit is not None and (not isinstance(limit, int) or isinstance(limit, bool)):
                raise ValueError(
                    f"space.tile_candidates_per_geometry must be an integer, got {limit!r}"
                )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kernel": self.kernel,
            "sizes": dict(self.sizes),
            "strategy": self.strategy,
            "seed": self.seed,
            "eval_workers": self.eval_workers,
            "check_correctness": self.check_correctness,
            "options": dict(self.options) if self.options else None,
            "space": dict(self.space) if self.space else None,
            "backend": self.backend,
            "trace": self.trace,
            "priority": self.priority,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TuneRequest":
        known = {f.name for f in fields(cls)}
        extra = set(payload) - known
        if extra:
            raise ValueError(f"unknown TuneRequest fields: {sorted(extra)}")
        if "kernel" not in payload:
            raise ValueError("a TuneRequest needs at least a 'kernel' name")
        return cls(**{k: v for k, v in payload.items() if v is not None})

    # -- materialisation ---------------------------------------------------------------
    def problem(self, spec: GPUSpec = GEFORCE_8800_GTX) -> TuningProblem:
        """Look the kernel up and build the :class:`TuningProblem` — no analysis.

        Raises ``ValueError`` for unknown kernels, sizes, options or space
        fields.
        """
        try:
            kernel = get_kernel(self.kernel)
        except KeyError as error:
            raise ValueError(error.args[0]) from None
        # JSON carries the space's tuples as lists (validated in __post_init__)
        space = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in (self.space or {}).items()
        }
        return TuningProblem(
            program=kernel.build(**self.sizes),
            spec=spec,
            options=MappingOptions.from_dict(self.options) if self.options else MappingOptions(),
            strategy=self.strategy,
            seed=self.seed,
            space_options=SpaceOptions(**space),
            check_correctness=self.check_correctness,
            check_program=kernel.build_check() if self.check_correctness else None,
            backend=self.backend,
            grid=kernel.grid,
        )

    def resolve(self, spec: GPUSpec = GEFORCE_8800_GTX) -> "ResolvedRequest":
        """Build the problem and compute the request's cache fingerprint.

        Cheap — band analysis and loop extents only, never a pipeline
        compile — so the server can fingerprint every incoming request
        synchronously.  Raises what :meth:`problem` raises.
        """
        problem = self.problem(spec)
        return ResolvedRequest(self, problem, problem.prepare().key)


@dataclass
class ResolvedRequest:
    """A :class:`TuneRequest` materialised against the kernel registry."""

    request: TuneRequest
    problem: TuningProblem
    fingerprint: str


# -- the command-line vocabulary -------------------------------------------------------
def parse_sizes(pairs: Sequence[str]) -> Dict[str, int]:
    """Parse ``name=value`` problem-size pairs."""
    sizes: Dict[str, int] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"size must look like name=value, got {pair!r}")
        try:
            sizes[name.strip()] = int(value)
        except ValueError:
            raise ValueError(
                f"size value for {name!r} must be an integer, got {value!r}"
            ) from None
    return sizes


def add_request_arguments(
    parser: argparse.ArgumentParser, *, sizes_only: bool = False, kernel_optional: bool = False
) -> None:
    """Define the request flags on ``parser``: the kernel, ``--size`` and,
    unless ``sizes_only``, ``--strategy --backend --seed --check --threads
    --blocks``.  :func:`request_from_args` reads them back."""
    parser.add_argument(
        "kernel", nargs="?" if kernel_optional else None, help="registered kernel name"
    )
    parser.add_argument(
        "--size",
        nargs="*",
        default=[],
        metavar="NAME=VALUE",
        help="problem-size overrides, e.g. --size m=256 n=256 k=256",
    )
    if sizes_only:
        return
    parser.add_argument(
        "--strategy",
        default="pruned",
        choices=sorted(STRATEGIES),
        help="search strategy (default: pruned)",
    )
    parser.add_argument(
        "--backend",
        default="model:",
        metavar="URI",
        help="evaluation backend: model: (default analytical pricing), "
        "measure-py: (run the emitted Python once, price each block's counted work), "
        "measure-c:[cc=..] (compile + time the emitted C), or "
        "hybrid:model>measure-py?top=K (model prunes, measurement re-ranks); "
        "see 'python -m repro.autotune backends'",
    )
    parser.add_argument("--seed", type=int, default=0, help="search / input seed")
    parser.add_argument(
        "--check",
        action="store_true",
        help="spot-check the winner before it is crowned, falling back to "
        "the next candidate when it is wrong: a measure-py backend runs the "
        "winner's lowering at the tuned size against the unmapped program's, "
        "the others interpret it at the kernel's small verification size",
    )
    parser.add_argument(
        "--threads",
        type=int,
        nargs="*",
        default=None,
        help="thread-per-block counts to explore (default: 64 128 256)",
    )
    parser.add_argument(
        "--blocks",
        type=int,
        nargs="*",
        default=None,
        help="thread-block counts to explore (default: 16 32 64)",
    )


def request_from_args(args: argparse.Namespace, **fields: Any) -> TuneRequest:
    """The :class:`TuneRequest` that :func:`add_request_arguments`' flags name.

    ``fields`` sets the request fields no shared flag carries (the service's
    ``priority``, say); a ``space`` among them is merged with ``--threads`` /
    ``--blocks``.  Raises ``ValueError`` for malformed sizes or an unknown
    backend scheme.
    """
    given = vars(args)
    space = dict(fields.pop("space", None) or {})
    if given.get("threads"):
        space["thread_counts"] = list(args.threads)
    if given.get("blocks"):
        space["block_counts"] = list(args.blocks)
    for flag, name in (
        ("strategy", "strategy"),
        ("seed", "seed"),
        ("check", "check_correctness"),
        ("backend", "backend"),
    ):
        if flag in given:
            fields[name] = given[flag]
    return TuneRequest(
        kernel=args.kernel, sizes=parse_sizes(args.size), space=space or None, **fields
    )
