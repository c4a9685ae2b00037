"""A ``model:`` candidate is priced from its scratchpad plan.

The seed's tile sizes come from the §4.3 search on the configuration space's
own model, not from a compile, so tiling → scratchpad → mapping run once per
evaluation.  Algorithm 2's copy loops are scanned only when a program is read
(lowered, interpreted, emitted) and never to price one.  That is sound only
if the plan's structural ``has_copy_in`` / ``has_copy_out`` say what a scan
would: whether it yields a non-empty loop nest.
"""

import pickle
import sys
import threading

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import lowering_oracle as oracle
from repro.autotune import SpaceOptions, autotune
from repro.autotune import space as space_module
from repro.autotune.space import ConfigurationSpace
from repro.codegen import emit_python_source, scan_union
from repro.compiler import CompilationSession, counting_stage_runs
from repro.ir.ast import BlockNode
from repro.kernels import available_kernels, get_kernel
from repro.scratchpad import movement
from repro.tiling import tile_search
from test_decisions_unchanged import SIZES, SPACE
from test_fraction_boundary import COLD_WORKLOADS

#: the end-to-end benchmark's cold-model requests: (kernel, sizes)
COLD_MODEL = [(name, sizes) for name, sizes, _count, _winner in COLD_WORKLOADS["cold-model"][2]]


@pytest.fixture
def scans(monkeypatch):
    """``[n]``: copy-loop scans (calls of ``scan_union`` by the movement code)."""
    count = [0]
    original = movement.scan_union

    def counting(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(movement, "scan_union", counting)
    return count


@pytest.mark.parametrize("name, sizes", COLD_MODEL)
def test_a_model_request_maps_each_evaluation_once_and_scans_nothing(name, sizes, scans):
    program = get_kernel(name).build(**sizes)
    with counting_stage_runs() as stages:
        report = autotune(program, cache=None, strategy="pruned", space_options=SPACE)
    for stage in ("tiling", "scratchpad", "mapping"):
        assert stages.counts[stage] == report.num_evaluations
    assert scans[0] == 0
    # the copy loops are still there for whoever reads the program
    CompilationSession(program).replay(config=report.best.configuration).program
    assert scans[0] > 0


def test_the_seed_search_shares_its_geometrys_relaxation(monkeypatch):
    """The default space holds the seed's launch geometry (32 blocks, 256
    threads): one relaxed solve per geometry serves the seed and the space."""
    calls = [0]
    original = tile_search.solve_relaxed

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(tile_search, "solve_relaxed", counting)
    monkeypatch.setattr(space_module, "solve_relaxed", counting)
    options = SpaceOptions()
    autotune(get_kernel("jacobi1d").build(size=256), cache=None, space_options=options)
    assert calls[0] == len(options.thread_counts) * len(options.block_counts)


def _assert_flags_match_scans(plan):
    """Each buffer's structural flags against an independent scan of its spaces."""
    for entry in plan.buffers if plan is not None else ():
        code = entry.movement
        for flag, spaces, nest in (
            (code.has_copy_in(), code.spec.read_spaces(), code.copy_in),
            (code.has_copy_out(), code.spec.write_spaces(), code.copy_out),
        ):
            assert flag == bool(scan_union(spaces, lambda _piece: BlockNode()).body)
            assert flag == bool(nest.body)


@pytest.mark.parametrize("name", available_kernels())
def test_copy_flags_match_the_scan_on_every_kernel(name):
    program = get_kernel(name).build(**SIZES[name])
    space = ConfigurationSpace(program, space_options=SPACE)
    configurations = space.enumerate()
    assert configurations[0] == space.seed_configuration()
    for configuration in configurations:
        _assert_flags_match_scans(space.session.replay(config=configuration).plan)


@settings(max_examples=80, deadline=None, derandomize=True, suppress_health_check=list(HealthCheck))
@given(st.data())
def test_copy_flags_match_the_scan_on_generated_programs(data):
    program = data.draw(oracle.programs(mappable=True))
    configuration = data.draw(oracle.configurations(program))
    try:
        mapped = CompilationSession(program).replay(config=configuration)
    except ValueError:
        mapped = None  # the machine cannot execute this mapping
    assume(mapped is not None)
    _assert_flags_match_scans(mapped.plan)


def _unread_matmul():
    program = get_kernel("matmul").build(m=16, n=16, k=16)
    space = ConfigurationSpace(program, space_options=SPACE)
    return space.session.replay(config=space.seed_configuration())


def test_an_unread_mapped_kernel_pickles_and_splices_where_it_lands():
    mapped = _unread_matmul()
    clone = pickle.loads(pickle.dumps(mapped))
    assert emit_python_source(clone.program) == emit_python_source(mapped.program)
    assert mapped.program.name.endswith("_spm")


def test_racing_readers_splice_the_copy_code_once(scans):
    mapped = _unread_matmul()
    barrier = threading.Barrier(8)
    programs = []

    def read():
        barrier.wait(timeout=60)
        programs.append(mapped.program)

    threads = [threading.Thread(target=read) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(programs) == 8 and all(p is programs[0] for p in programs)
    moves = sum(e.movement.has_copy_in() + e.movement.has_copy_out() for e in mapped.plan.buffers)
    assert scans[0] == moves > 0
    assert emit_python_source(programs[0]) == emit_python_source(_unread_matmul().program)
