"""Kept hashes and materialised constraints must not travel between processes.

``AffineExpr`` and ``Polyhedron`` hash once and keep the value, and ``str``
hashes differ from one interpreter to the next, so a kept hash that rode along
in a pickle would put an object in the wrong dictionary bucket on arrival:
lookups of an equal object would miss.  The server's process executor starts
its workers with *spawn*; this test ships hashed objects and a frozen
compilation session to a spawn-started interpreter running under a different
``PYTHONHASHSEED`` and asks there what a worker relies on.
"""

import multiprocessing
import os
import pickle
from fractions import Fraction

from repro.compiler import CompilationSession
from repro.kernels import get_kernel
from repro.polyhedral import parametric
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.constraints import Constraint
from repro.polyhedral.parametric import QuasiAffineBound, shared_resolutions
from repro.polyhedral.polyhedron import Polyhedron

CHILD_SEED = "4242"


def _subjects():
    i, n = AffineExpr.var("i"), AffineExpr.var("N")
    expr = (2 * i - n + 3) / 4
    constraint = Constraint.less_equal(expr, Fraction(5, 2))
    bound = QuasiAffineBound("max", (i, i + n - 1, expr))
    polyhedron = Polyhedron(
        ["i"], [Constraint.greater_equal(i, 0), Constraint.less_equal(2 * i, n)], ["N"]
    ).project_onto(["i"])  # built from rows: its constraints are not materialised yet
    return expr, constraint, bound, polyhedron


def _never(subject, context):
    raise AssertionError("the shipped memo should have answered")


def _asked_in_the_child(blob):
    """Runs in the spawned interpreter; returns what the parent compares."""
    assert os.environ["PYTHONHASHSEED"] == CHILD_SEED
    arrived, session = pickle.loads(blob)
    for shipped, local in zip(arrived, _subjects()):
        assert shipped == local and hash(shipped) == hash(local)
        assert {shipped: "found"}[local] == "found"
    expr, constraint, bound, polyhedron = arrived
    assert polyhedron.constraints == _subjects()[3].constraints
    # de-duplication is by hash and equality: an equal newcomer adds nothing
    assert QuasiAffineBound("max", bound.exprs + (_subjects()[0],)).exprs == bound.exprs
    # the session's resolution memo answers value-equal questions here too
    memo = session._resolutions
    (subject, context), answer = next(iter(memo.items()))
    subject, context = pickle.loads(pickle.dumps((subject, context)))  # equal, never hashed
    with shared_resolutions(memo):
        assert parametric._resolved(_never, subject, context) == answer
    mapped = session.compile()  # frozen: nothing is recomputed, the artifact arrived
    return hash("i"), len(memo), dict(mapped.tile_sizes)


def test_hashed_objects_and_a_frozen_session_survive_a_spawned_interpreter(monkeypatch):
    subjects = _subjects()
    session = CompilationSession(get_kernel("matmul").build(m=16, n=16, k=16))
    mapped = session.compile()
    assert session._resolutions  # the compile asked bound questions
    for subject in subjects:
        hash(subject)  # the kept hashes exist before the pickle is made
    assert all(hash(key) for key in session._resolutions)
    blob = pickle.dumps((subjects, session))

    monkeypatch.setenv("PYTHONHASHSEED", CHILD_SEED)
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        str_hash, answers, tile_sizes = pool.apply_async(_asked_in_the_child, (blob,)).get(
            timeout=120
        )
    assert str_hash != hash("i")  # the child really hashed names differently
    assert answers == len(session._resolutions)
    assert tile_sizes == mapped.tile_sizes


def test_neither_the_hash_nor_the_constraints_are_in_the_pickle():
    expr, _, _, polyhedron = _subjects()
    hash(expr), hash(polyhedron), polyhedron.constraints, polyhedron.components()
    assert pickle.loads(pickle.dumps(expr))._hash is None
    clone = pickle.loads(pickle.dumps(polyhedron))
    assert clone._hash is None and clone._constraints is None and clone._parts is None
    assert clone == polyhedron and clone.constraints == polyhedron.constraints
    assert clone.components() == polyhedron.components()
