"""Polyhedra and polytopes over named dimensions and parameters.

A :class:`Polyhedron` is the intersection of finitely many affine constraints
over two kinds of variables: *set dimensions* (loop iterators or data-space
indices) and *parameters* (problem sizes, tile sizes).  This mirrors the
paper's use of PolyLib: iteration-space polytopes, data spaces (images under
access functions) and dependence polyhedra are all instances of this class.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.polyhedral import fourier_motzkin as fm
from repro.polyhedral.affine import AffineExpr, ExprLike
from repro.polyhedral.constraints import Constraint
from repro.utils.frac import as_fraction, fraction_ceil, fraction_floor

Number = Union[int, Fraction]


class Polyhedron:
    """An intersection of affine constraints over dims and parameters."""

    __slots__ = ("_dims", "_params", "_constraints", "_hash")

    def __init__(
        self,
        dims: Sequence[str],
        constraints: Iterable[Constraint] = (),
        params: Sequence[str] = (),
    ) -> None:
        dims = tuple(dims)
        params = tuple(params)
        if len(set(dims)) != len(dims):
            raise ValueError(f"duplicate dimension names in {dims}")
        if len(set(params)) != len(params):
            raise ValueError(f"duplicate parameter names in {params}")
        overlap = set(dims) & set(params)
        if overlap:
            raise ValueError(f"names used both as dim and parameter: {sorted(overlap)}")
        known = set(dims) | set(params)
        clean: List[Constraint] = []
        for constraint in constraints:
            unknown = [v for v in constraint.variables if v not in known]
            if unknown:
                raise ValueError(
                    f"constraint '{constraint}' mentions unknown names {unknown}; "
                    f"dims={dims}, params={params}"
                )
            clean.append(constraint)
        self._dims = dims
        self._params = params
        self._constraints = tuple(fm.remove_redundant(clean))
        self._hash: Optional[int] = None

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
        return self._constraints

    @property
    def dim_count(self) -> int:
        return len(self._dims)

    def __repr__(self) -> str:
        dims = ", ".join(self._dims)
        params = ", ".join(self._params)
        body = " and ".join(str(c) for c in self._constraints) or "true"
        prefix = f"[{params}] -> " if params else ""
        return f"{prefix}{{ [{dims}] : {body} }}"

    # -- structural operations ---------------------------------------------------
    def add_constraints(self, constraints: Iterable[Constraint]) -> "Polyhedron":
        """Return a new polyhedron with extra constraints added."""
        return Polyhedron(
            self._dims, list(self._constraints) + list(constraints), self._params
        )

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        """Intersection; both operands must use the same dimension tuple."""
        if self._dims != other._dims:
            raise ValueError(
                f"cannot intersect polyhedra over different dims: "
                f"{self._dims} vs {other._dims}"
            )
        params = tuple(dict.fromkeys(self._params + other._params))
        return Polyhedron(
            self._dims, list(self._constraints) + list(other._constraints), params
        )

    def rename_dims(self, mapping: Mapping[str, str]) -> "Polyhedron":
        """Rename dimensions (and their occurrences in constraints)."""
        new_dims = tuple(mapping.get(d, d) for d in self._dims)
        constraints = [c.rename(mapping) for c in self._constraints]
        return Polyhedron(new_dims, constraints, self._params)

    def with_dims(self, dims: Sequence[str]) -> "Polyhedron":
        """Re-embed into a space with dimension tuple *dims* (a superset)."""
        missing = [d for d in self._dims if d not in dims]
        if missing:
            raise ValueError(f"target dims {dims} must include existing dims; missing {missing}")
        return Polyhedron(dims, self._constraints, self._params)

    def specialize(self, param_binding: Mapping[str, Number]) -> "Polyhedron":
        """Substitute numeric values for (some) parameters."""
        constraints = [
            c.substitute({k: as_fraction(v) for k, v in param_binding.items()})
            for c in self._constraints
        ]
        params = tuple(p for p in self._params if p not in param_binding)
        return Polyhedron(self._dims, constraints, params)

    def project_out(self, names: Iterable[str]) -> "Polyhedron":
        """Existentially project away the given dims (Fourier–Motzkin)."""
        names = [n for n in names]
        unknown = [n for n in names if n not in self._dims]
        if unknown:
            raise ValueError(f"cannot project out non-dimensions {unknown}")
        constraints = fm.eliminate(self._constraints, names)
        remaining = tuple(d for d in self._dims if d not in names)
        return Polyhedron(remaining, constraints, self._params)

    def project_onto(self, names: Sequence[str]) -> "Polyhedron":
        """Project onto the given dims, dropping all others."""
        drop = [d for d in self._dims if d not in names]
        projected = self.project_out(drop)
        order = tuple(n for n in names if n in projected.dims)
        return Polyhedron(order, projected.constraints, self._params)

    # -- predicates ------------------------------------------------------------
    def is_empty(self) -> bool:
        """Exact *rational* emptiness test.

        For the integer sets manipulated by the framework (iteration domains
        and data spaces with unit-coefficient bounds) rational emptiness
        coincides with integer emptiness; where the distinction matters use
        :meth:`has_integer_point`.
        """
        return fm.is_rationally_infeasible(self._constraints)

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
        return all(c.satisfied_by(binding) for c in self._constraints)

    def intersects(self, other: "Polyhedron") -> bool:
        """True when the intersection is (rationally) non-empty."""
        return not self.intersect(other).is_empty()

    def is_subset_of(self, other: "Polyhedron") -> bool:
        """Integer-subset test: every integer point of self satisfies other."""
        if self._dims != other._dims:
            raise ValueError("subset test requires identical dimension tuples")
        if self.is_empty():
            return True
        for constraint in other._constraints:
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
    def dim_bound_constraints(self, name: str) -> "Polyhedron":
        """Project onto a single dimension (keeping parameters)."""
        return self.project_onto([name])

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
            lowers, uppers = fm.bounds_for_variable(poly._constraints, name, poly._params)
            if not lowers or not uppers:
                raise ValueError(f"dimension '{name}' is unbounded in {poly!r}")
            lower_values: List[Fraction] = []
            upper_values: List[Fraction] = []
            for expr, coeff in lowers:
                if not expr.is_constant():
                    raise ValueError(
                        f"bound of '{name}' depends on unbound parameters: {expr}"
                    )
                lower_values.append(expr.constant / coeff)
            for expr, coeff in uppers:
                if not expr.is_constant():
                    raise ValueError(
                        f"bound of '{name}' depends on unbound parameters: {expr}"
                    )
                upper_values.append(expr.constant / coeff)
            box[name] = (
                fraction_ceil(max(lower_values)),
                fraction_floor(min(upper_values)),
            )
        return box

    def sample_integer_point(
        self, param_binding: Optional[Mapping[str, Number]] = None
    ) -> Optional[Dict[str, int]]:
        """Return one integer point of the polyhedron, or ``None`` if there is none.

        Uses a straightforward recursive search over per-dimension bounds; the
        sets handled by the framework are small enough for this to be instant.
        """
        poly = self.specialize(param_binding or {})
        if poly.params:
            raise ValueError(f"parameters must be bound for sampling: {poly.params}")
        if poly.is_empty():
            return None
        return poly._search_point({}, list(poly._dims))

    def _search_point(
        self, partial: Dict[str, int], remaining: List[str]
    ) -> Optional[Dict[str, int]]:
        if not remaining:
            return dict(partial) if self.contains(partial) else None
        name = remaining[0]
        constraints = [c.substitute(partial) for c in self._constraints]
        if any(c.is_trivially_false() for c in constraints):
            return None
        lowers, uppers = fm.bounds_for_variable(constraints, name, [])
        lower_values = [expr.constant / coeff for expr, coeff in lowers if expr.is_constant()]
        upper_values = [expr.constant / coeff for expr, coeff in uppers if expr.is_constant()]
        if not lower_values or not upper_values:
            if fm.is_rationally_infeasible(constraints):
                return None
            raise ValueError(f"dimension '{name}' is unbounded; cannot sample")
        low = fraction_ceil(max(lower_values))
        high = fraction_floor(min(upper_values))
        for value in range(low, high + 1):
            partial[name] = value
            found = self._search_point(partial, remaining[1:])
            if found is not None:
                return found
            del partial[name]
        return None

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
            and set(self._constraints) == set(other._constraints)
        )

    def __hash__(self) -> int:
        if self._hash is None:  # immutable, so hashed once
            self._hash = hash((self._dims, self._params, frozenset(self._constraints)))
        return self._hash

    # str hashes differ between processes, so the kept hash must not travel
    def __getstate__(self) -> Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[Constraint, ...]]:
        return self._dims, self._params, self._constraints

    def __setstate__(self, state) -> None:
        self._dims, self._params, self._constraints = state
        self._hash = None
