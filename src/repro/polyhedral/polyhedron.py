"""Polyhedra and polytopes over named dimensions and parameters.

A :class:`Polyhedron` is the intersection of finitely many affine constraints
over two kinds of variables: *set dimensions* (loop iterators or data-space
indices) and *parameters* (problem sizes, tile sizes).  This mirrors the
paper's use of PolyLib: iteration-space polytopes, data spaces (images under
access functions) and dependence polyhedra are all instances of this class.

What is stored is the constraint matrix: the sorted names the system mentions
and its reduced normal integer rows (:mod:`repro.polyhedral.fourier_motzkin`).
Every operation starts from those rows and hands rows to the polyhedra it
builds; :class:`Constraint` objects — and with them ``Fraction`` — appear only
when :attr:`Polyhedron.constraints` is read.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.polyhedral import fourier_motzkin as fm
from repro.polyhedral.affine import AffineExpr, ExprLike, scaled_binding
from repro.polyhedral.constraints import Constraint
from repro.polyhedral.facts import Facts

Number = Union[int, Fraction]


class Polyhedron:
    """An intersection of affine constraints over dims and parameters."""

    __slots__ = ("_dims", "_params", "_names", "_rows", "_constraints", "_hash", "_facts")

    def __init__(
        self,
        dims: Sequence[str],
        constraints: Iterable[Constraint] = (),
        params: Sequence[str] = (),
    ) -> None:
        constraints = list(constraints)
        names, rows = fm.rows_of(constraints)
        self._adopt(dims, params, names, fm.reduce_rows(rows), constraints)

    @classmethod
    def _from_rows(cls, *system) -> "Polyhedron":
        """A polyhedron over a reduced row system (:meth:`_adopt`); builds no constraint object."""
        polyhedron = object.__new__(cls)
        polyhedron._adopt(*system)
        return polyhedron

    def _adopt(
        self,
        dims: Sequence[str],
        params: Sequence[str],
        names: Sequence[str],
        rows: Sequence[fm.Row],
        given: Sequence[Constraint] = (),
    ) -> None:
        """Become *rows* (reduced, over *names*); *given*: the constraints from outside among them."""
        dims, params = tuple(dims), tuple(params)
        if len(set(dims)) != len(dims):
            raise ValueError(f"duplicate dimension names in {dims}")
        if len(set(params)) != len(params):
            raise ValueError(f"duplicate parameter names in {params}")
        overlap = set(dims) & set(params)
        if overlap:
            raise ValueError(f"names used both as dim and parameter: {sorted(overlap)}")
        if set(names).difference(dims, params):
            for constraint in given:
                unknown = [v for v in constraint.variables if v not in dims + params]
                if unknown:
                    raise ValueError(
                        f"constraint '{constraint}' mentions unknown names {unknown}; "
                        f"dims={dims}, params={params}"
                    )
        self._dims = dims
        self._params = params
        # one spelling per system: no column that no row uses
        used = tuple(name for idx, name in enumerate(names) if any(row[1][idx] for row in rows))
        self._names, self._rows = used, tuple(fm.reindex_rows(names, rows, used))
        self._constraints: Optional[Tuple[Constraint, ...]] = None  # until read
        self._hash: Optional[int] = None
        self._facts: Optional[Facts] = None  # until asked

    # -- constructors ------------------------------------------------------
    @classmethod
    def universe(cls, dims: Sequence[str], params: Sequence[str] = ()) -> "Polyhedron":
        """The unconstrained polyhedron over the given dimensions."""
        return cls(dims, (), params)

    @classmethod
    def from_bounds(
        cls,
        bounds: Mapping[str, Tuple[ExprLike, ExprLike]],
        params: Sequence[str] = (),
        dim_order: Optional[Sequence[str]] = None,
    ) -> "Polyhedron":
        """Rectangular polyhedron ``lb <= dim <= ub`` for every entry of *bounds*."""
        dims = tuple(dim_order) if dim_order is not None else tuple(bounds)
        constraints: List[Constraint] = []
        for name, (lower, upper) in bounds.items():
            low_c, up_c = Constraint.bounds(name, lower, upper)
            constraints.extend((low_c, up_c))
        return cls(dims, constraints, params)

    @classmethod
    def empty(cls, dims: Sequence[str], params: Sequence[str] = ()) -> "Polyhedron":
        """A canonical empty polyhedron (contains the contradiction -1 >= 0)."""
        return cls(dims, [Constraint(AffineExpr.const(-1))], params)

    # -- basic accessors ------------------------------------------------------
    @property
    def dims(self) -> Tuple[str, ...]:
        return self._dims

    @property
    def params(self) -> Tuple[str, ...]:
        return self._params

    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        if self._constraints is None:  # immutable, so materialised once
            self._constraints = tuple(fm.constraints_of(self._names, self._rows))
        return self._constraints

    @property
    def facts(self) -> Facts:
        """The constraints as a facts context, brought in parameters first, then
        dims in order, as a loop nest over them would (made once, on first use)."""
        if self._facts is None:
            self._facts = Facts.scanning(self.constraints, (*self._params, *self._dims))
        return self._facts

    def __repr__(self) -> str:
        dims = ", ".join(self._dims)
        params = ", ".join(self._params)
        body = " and ".join(str(c) for c in self.constraints) or "true"
        prefix = f"[{params}] -> " if params else ""
        return f"{prefix}{{ [{dims}] : {body} }}"

    # -- structural operations ---------------------------------------------------
    def _merged(self, params, names, rows, given=()) -> "Polyhedron":
        """This polyhedron with the rows of another system (over *names*) added."""
        union = sorted(set(self._names).union(names))
        combined = fm.reindex_rows(self._names, self._rows, union)
        combined += fm.reindex_rows(names, rows, union)
        return Polyhedron._from_rows(self._dims, params, union, fm.reduce_rows(combined), given)

    def add_constraints(self, constraints: Iterable[Constraint]) -> "Polyhedron":
        """Return a new polyhedron with extra constraints added."""
        constraints = list(constraints)
        return self._merged(self._params, *fm.rows_of(constraints), constraints)

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        """Intersection; both operands must use the same dimension tuple."""
        if self._dims != other._dims:
            raise ValueError(
                f"cannot intersect polyhedra over different dims: "
                f"{self._dims} vs {other._dims}"
            )
        params = tuple(dict.fromkeys(self._params + other._params))
        return self._merged(params, other._names, other._rows)

    def rename_dims(self, mapping: Mapping[str, str]) -> "Polyhedron":
        """Rename dimensions (and their occurrences in constraints)."""
        new_dims = tuple(mapping.get(d, d) for d in self._dims)
        constraints = [c.rename(mapping) for c in self.constraints]
        return Polyhedron(new_dims, constraints, self._params)

    def specialize(self, param_binding: Mapping[str, Number]) -> "Polyhedron":
        """Substitute numeric values for (some) parameters."""
        if not param_binding:
            return self
        values, scale = scaled_binding(param_binding)
        rows = fm.bind_rows(self._names, self._rows, values, scale)
        params = tuple(p for p in self._params if p not in param_binding)
        return Polyhedron._from_rows(self._dims, params, self._names, fm.reduce_rows(rows))

    def project_out(self, names: Iterable[str]) -> "Polyhedron":
        """Existentially project away the given dims (Fourier–Motzkin)."""
        names = [n for n in names]
        unknown = [n for n in names if n not in self._dims]
        if unknown:
            raise ValueError(f"cannot project out non-dimensions {unknown}")
        rows = fm.eliminate_rows(self._names, self._rows, names)
        remaining = tuple(d for d in self._dims if d not in names)
        return Polyhedron._from_rows(remaining, self._params, self._names, rows)

    def project_onto(self, names: Sequence[str]) -> "Polyhedron":
        """Project onto the given dims, dropping all others."""
        drop = [d for d in self._dims if d not in names]
        rows = fm.eliminate_rows(self._names, self._rows, drop)
        order = tuple(n for n in names if n in self._dims)
        return Polyhedron._from_rows(order, self._params, self._names, rows)

    # -- predicates ------------------------------------------------------------
    def is_empty(self) -> bool:
        """Exact *rational* emptiness test.

        For the integer sets manipulated by the framework (iteration domains
        and data spaces with unit-coefficient bounds) rational emptiness
        coincides with integer emptiness; where the distinction matters use
        :meth:`has_integer_point`.
        """
        return fm.rows_infeasible(self._names, self._rows)

    def has_integer_point(self, param_binding: Optional[Mapping[str, Number]] = None) -> bool:
        """True if the (specialised) polyhedron contains at least one integer point."""
        poly = self.specialize(param_binding or {})
        if poly.params:
            raise ValueError(
                f"all parameters must be bound for integer sampling; unbound: {poly.params}"
            )
        if poly.is_empty():
            return False
        return poly.sample_integer_point() is not None

    def contains(self, binding: Mapping[str, Number]) -> bool:
        """Membership test for a fully bound point (dims and parameters)."""
        return all(c.satisfied_by(binding) for c in self.constraints)

    def intersects(self, other: "Polyhedron") -> bool:
        """True when the intersection is (rationally) non-empty."""
        return not self.intersect(other).is_empty()

    def is_subset_of(self, other: "Polyhedron") -> bool:
        """Integer-subset test: every integer point of self satisfies other."""
        if self._dims != other._dims:
            raise ValueError("subset test requires identical dimension tuples")
        if self.is_empty():
            return True
        for constraint in other.constraints:
            for ineq in constraint.as_pair_of_inequalities():
                violated = self.add_constraints([ineq.negate()])
                if not violated.is_empty():
                    # A rational counterexample might still contain no integer
                    # point; only then fall back to the exact integer check.
                    if violated.params or violated._is_obviously_unbounded():
                        return False
                    if violated.sample_integer_point() is not None:
                        return False
        return True

    def equals(self, other: "Polyhedron") -> bool:
        """Integer-set equality."""
        return self.is_subset_of(other) and other.is_subset_of(self)

    def _is_obviously_unbounded(self) -> bool:
        try:
            self.bounding_box()
            return False
        except ValueError:
            return True

    # -- bounds and sampling -------------------------------------------------
    def bounding_box(
        self, param_binding: Optional[Mapping[str, Number]] = None
    ) -> Dict[str, Tuple[int, int]]:
        """Integer bounding box ``{dim: (lb, ub)}`` of the specialised polyhedron.

        Raises ``ValueError`` when a dimension is unbounded or a parameter is
        left unbound but appears in the projected bounds.
        """
        poly = self.specialize(param_binding or {})
        box: Dict[str, Tuple[int, int]] = {}
        for name in poly._dims:
            lowers, uppers = fm.row_bounds(poly._names, poly._rows, name, poly._params)
            if not lowers or not uppers:
                raise ValueError(f"dimension '{name}' is unbounded in {poly!r}")
            for expr, _ in lowers + uppers:
                if not expr.is_constant():
                    raise ValueError(
                        f"bound of '{name}' depends on unbound parameters: {expr}"
                    )
            box[name] = _integer_range(lowers, uppers)
        return box

    def sample_integer_point(
        self, param_binding: Optional[Mapping[str, Number]] = None
    ) -> Optional[Dict[str, int]]:
        """Return one integer point of the polyhedron, or ``None`` if there is none.

        The first point of the lexicographic enumeration; the sets handled by
        the framework are small enough for this to be instant.
        """
        from repro.polyhedral.counting import enumerate_integer_points

        poly = self.specialize(param_binding or {})
        if poly.params:
            raise ValueError(f"parameters must be bound for sampling: {poly.params}")
        return next(enumerate_integer_points(poly), None)

    def integer_range_at(self, name: str, partial: Mapping[str, int]) -> Optional[Tuple[int, int]]:
        """Integer range of dim *name* with the dims of *partial* fixed (``None``: no point left)."""
        rows = fm.reduce_rows(fm.bind_rows(self._names, self._rows, partial))
        if any(fm.is_false_row(row) for row in rows):
            return None
        lowers, uppers = fm.row_bounds(self._names, rows, name, ())
        if not lowers or not uppers:
            # Either genuinely unbounded, or the remaining system is infeasible
            # (projection collapsed to a contradiction) and simply has no points.
            if fm.rows_infeasible(self._names, rows):
                return None
            raise ValueError(f"dimension '{name}' is unbounded; cannot enumerate")
        return _integer_range(lowers, uppers)

    # -- enumeration (delegates to counting, kept here for convenience) ----------
    def integer_points(
        self, param_binding: Optional[Mapping[str, Number]] = None
    ) -> Iterator[Dict[str, int]]:
        """Iterate over all integer points (requires bounded, fully specialised set)."""
        from repro.polyhedral.counting import enumerate_integer_points

        return enumerate_integer_points(self, param_binding)

    def count_points(self, param_binding: Optional[Mapping[str, Number]] = None) -> int:
        """Number of integer points (requires bounded, fully specialised set)."""
        from repro.polyhedral.counting import count_integer_points

        return count_integer_points(self, param_binding)

    # -- equality-as-value ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polyhedron):
            return NotImplemented
        return (
            self._dims == other._dims
            and self._params == other._params
            and self._names == other._names
            and set(self._rows) == set(other._rows)
        )

    def __hash__(self) -> int:
        if self._hash is None:  # immutable, so hashed once
            self._hash = hash(
                (self._dims, self._params, self._names, frozenset(self._rows))
            )
        return self._hash

    # str hashes differ between processes, so the kept hash must not travel;
    # the materialised constraints are rebuilt from the rows where they are read
    def __getstate__(self) -> tuple:
        return self._dims, self._params, self._names, self._rows

    def __setstate__(self, state) -> None:
        self._dims, self._params, self._names, self._rows = state
        self._constraints = self._hash = self._facts = None


def _integer_range(
    lowers: Sequence[Tuple[AffineExpr, int]], uppers: Sequence[Tuple[AffineExpr, int]]
) -> Tuple[int, int]:
    """``(ceil(max lower), floor(min upper))`` of constant ``expr / coeff`` bounds."""
    return (
        max(-(-expr._const // coeff) for expr, coeff in lowers),
        min(expr._const // coeff for expr, coeff in uppers),
    )
