"""Facts in force and what they imply: one context for the lowering and the planner.

The lowering (:mod:`repro.codegen.lower`) pushes and pops what its loops and
guards establish as it walks, and asks whether a guard conjunct is implied or
a bound term never decides its bound; the planner
(:mod:`repro.polyhedral.parametric`) asks a tile-origin context the same
dominance question and for the rows an expression's maximum is projected
from.  The facts in force are interned as small-int *states*, each split
into *components* (facts connected through shared variables); a question is
asked of the components that mention its variables.  It is settled by the
cheapest argument that decides it, each giving Fourier–Motzkin's answer: a
fact with the same terms and a constant no larger, or a rational box around
the component, proves it; an integer point of the component (each variable
at its least and greatest value, as a loop nest runs) refutes it; otherwise
:func:`~repro.polyhedral.fourier_motzkin.rows_infeasible` decides on rows.
"""

from __future__ import annotations

import contextlib
from fractions import Fraction
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union,
)

from repro.polyhedral import fourier_motzkin as fm
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.constraints import Constraint

#: an integer point: variable -> value
_Point = Dict[str, int]
#: an exact value, an int whenever it is whole
_Rational = Union[int, Fraction]
#: at most this many sample points per component
_SAMPLES = 16
#: a fact in force: the constraint, its variables, its number
Fact = Tuple[Constraint, FrozenSet[str], int]


class _Component:
    """Facts in force connected through shared variables, and what decides questions on them.

    ``points`` (integer points of the facts: each loop's least and greatest
    iterator value) refute a conjunct; ``shifts`` (a fact with the same terms)
    and ``box`` (a rational box around the facts) prove one; ``rows`` answer
    exactly.  Each is made the first time a question needs it.
    """

    __slots__ = (
        "facts", "order", "numbers", "names", "_parts", "_pushed", "_points", "_shifts", "_box",
        "_rows", "_infeasible",
    )

    def __init__(self, parts: Sequence["_Component"], pushed: Sequence[Fact]) -> None:
        self.facts = (*(f for c in parts for f in c.facts), *(f for f, _, _ in pushed))
        #: each fact's number, in the order of ``facts``
        self.order = (*(n for c in parts for n in c.order), *(n for _, _, n in pushed))
        self.numbers = frozenset(self.order)
        self.names = frozenset().union(
            *(c.names for c in parts), *(names for _, names, _ in pushed)
        )
        self._parts: Optional[Sequence[_Component]] = parts
        self._pushed: Optional[Sequence[Fact]] = pushed
        self._points: Optional[Tuple[_Point, ...]] = None
        self._shifts: Optional[Dict[FrozenSet[Tuple[str, int]], int]] = None
        self._box: Optional[Dict[str, List[Optional[_Rational]]]] = None
        self._rows: Optional[Tuple[List[str], List[fm.Row]]] = None
        self._infeasible: Optional[bool] = None

    @property
    def points(self) -> Tuple[_Point, ...]:
        if self._points is None:
            self._points = _sampled(self._parts, [f for f, _, _ in self._pushed])
            self._parts = self._pushed = None
        return self._points

    @property
    def box(self) -> Dict[str, List[Optional[_Rational]]]:
        """A rational ``[low, high]`` per variable (``None``: unbounded) holding the facts.

        Each fact bounds each of its variables by the others' bounds so
        far, in the order the loops brought the facts in: outer loops
        first, so a chain ``i >= ip >= iT >= 0`` reaches ``i``.
        """
        if self._box is None:
            self._box = {}
            for fact in self.facts:
                _one, terms, constant = fact.expr.int_form()
                for sign in (1, -1) if fact.is_equality else (1,):
                    for name, coeff in terms:
                        # sign * (coeff*name + rest) >= 0, rest at its largest
                        rest = _largest(self._box, terms, sign * constant, sign, skip=name)
                        if rest is not None:
                            bounds = self._box.setdefault(name, [None, None])
                            value = _ratio(-rest, sign * coeff)
                            if sign * coeff > 0:
                                if bounds[0] is None or value > bounds[0]:
                                    bounds[0] = value
                            elif bounds[1] is None or value < bounds[1]:
                                bounds[1] = value
        return self._box

    @property
    def shifts(self) -> Dict[FrozenSet[Tuple[str, int]], int]:
        """The inequalities' terms -> the least constant a fact has with them."""
        if self._shifts is None:
            self._shifts = {}
            for fact in self.facts:
                if not fact.is_equality:
                    _one, terms, constant = fact.expr.int_form()
                    key = frozenset(terms)
                    self._shifts[key] = min(constant, self._shifts.get(key, constant))
        return self._shifts

    @property
    def rows(self) -> Tuple[List[str], List[fm.Row]]:
        """The facts as integer rows over their sorted names, in the order they were numbered."""
        if self._rows is None:
            ordered = sorted(zip(self.order, self.facts), key=lambda pair: pair[0])
            self._rows = fm.rows_of([fact for _, fact in ordered])
        return self._rows

    @property
    def infeasible(self) -> bool:
        """Whether the facts have no rational point (a sampled point is one)."""
        if self._infeasible is None:
            self._infeasible = not self.points and fm.rows_infeasible(*_with([self], None))
        return self._infeasible


def _largest(
    box: Mapping[str, List[Optional[_Rational]]],
    terms: Iterable[Tuple[str, int]],
    constant: int,
    sign: int,
    skip: Optional[str] = None,
) -> Optional[_Rational]:
    """The largest value of ``sign * sum c*name + constant`` over ``box`` (``skip`` left out)."""
    total: _Rational = constant
    for name, coeff in terms:
        if name != skip:
            bound = box.get(name, (None, None))[0 if sign * coeff < 0 else 1]
            if bound is None:
                return None
            total += sign * coeff * bound
    return total


def _ratio(numerator: _Rational, denominator: int) -> _Rational:
    """``numerator / denominator`` exactly, an int when it divides."""
    if isinstance(numerator, int) and numerator % denominator == 0:
        return numerator // denominator
    return Fraction(numerator) / denominator


def _holds_over(box: Mapping[str, List[Optional[_Rational]]], terms, constant: int) -> bool:
    """Whether ``sum c*name + constant >= 0`` everywhere in ``box``."""
    negation = _largest(box, terms, -constant, -1)  # its negation at the largest
    return negation is not None and negation <= 0


def _endpoints(name: str, point: _Point, facts: Sequence[Constraint]) -> Tuple[int, ...]:
    """The least and the greatest integer ``name`` the ``facts`` allow at ``point``."""
    lows: List[int] = []
    highs: List[int] = []
    for fact in facts:
        _one, terms, rest = fact.expr.int_form()  # a normalised constraint: integral
        coeff = 0
        for variable, c in terms:
            if variable == name:
                coeff = c
            else:
                rest += c * point[variable]
        # coeff * name + rest >= 0 (== 0)
        if fact.is_equality and coeff:
            if rest % coeff:
                return ()
            lows.append(-rest // coeff)
            highs.append(-rest // coeff)
        elif coeff > 0:
            lows.append(-(rest // coeff))
        elif coeff < 0:
            highs.append(rest // -coeff)
    low = max(lows or highs)
    high = min(highs or lows)
    return () if low > high else (low,) if low == high else (low, high)


def _sampled(parts: Iterable[_Component], facts: Sequence[Constraint]) -> Tuple[_Point, ...]:
    """Points of ``parts`` (on disjoint variables) extended to satisfy ``facts`` too.

    Each point of the product takes the least and the greatest value the
    facts allow for the one variable they bring in; with two or more new
    variables there are no samples (a question is then left to the exact
    answer).
    """
    points: List[_Point] = [{}]
    for part in parts:
        points = [{**p, **q} for p in points for q in part.points][:_SAMPLES]
    if not points:
        return ()
    new = {name for fact in facts for name in fact.variables} - points[0].keys()
    if len(new) > 1:
        return ()
    if new:
        (name,) = new
        # _endpoints meets every fact over the new variable; the others are tested
        points = [{**p, name: v} for p in points for v in _endpoints(name, p, facts)]
        facts = [fact for fact in facts if name not in fact.variables]
    unique = {tuple(sorted(p.items())): p for p in points if all(f.satisfied_by(p) for f in facts)}
    return tuple(unique.values())[:_SAMPLES]


def _joined(components: Dict[str, _Component], facts: Sequence[Fact]) -> Dict[str, _Component]:
    """``components`` (variable -> its component) with ``facts`` added and merged in."""
    groups: List[Tuple[Set[str], List[Fact]]] = []
    for fact in facts:
        if not fact[1]:
            continue  # a constant constrains no variable
        reach, batch = set(fact[1]), [fact]
        for name in fact[1]:
            if name in components:
                reach |= components[name].names
        for group in [g for g in groups if not g[0].isdisjoint(reach)]:
            groups.remove(group)
            reach |= group[0]
            batch[:0] = group[1]
        groups.append((reach, batch))
    joined = dict(components)
    for reach, batch in groups:
        parts = list({id(c): c for name in reach for c in [components.get(name)] if c}.values())
        component = _Component(parts, batch)
        for name in component.names:
            joined[name] = component
    return joined


def _with(
    parts: Sequence[_Component], extra: Optional[Constraint]
) -> Tuple[List[str], List[fm.Row]]:
    """The rows of ``parts`` then of ``extra``, over the union of their names, reduced."""
    systems = [part.rows for part in parts] + ([fm.rows_of([extra])] if extra else [])
    union = sorted(set().union(*(names for names, _ in systems)))
    return union, fm.reduce_rows(
        [row for names, rows in systems for row in fm.reindex_rows(names, rows, union)]
    )


class Facts:
    """The facts in force — pushed and popped as a walk descends — and what they imply.

    Variables no fact mentions (derived symbols, parameters) are free.  Each
    answer is remembered per question and per the facts it was asked of.
    """

    def __init__(self) -> None:
        self._in_force: List[Fact] = []
        #: constraint -> small int, so questions hash ints, not fractions
        self._numbering: Dict[Constraint, int] = {}
        #: (conjunct, the facts it was tested against) -> implied?
        self._implications: Dict[Tuple[int, FrozenSet[int]], bool] = {}
        #: the facts in force as a small int: (enclosing state, facts pushed) -> state
        self.state = 0
        self._states: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        #: state -> variable -> the facts in force connected to it through shared variables
        self._components: Dict[int, Dict[str, _Component]] = {0: {}}
        #: state -> whether its facts have no rational point
        self._emptiness: Dict[int, bool] = {}

    @classmethod
    def scanning(cls, constraints: Sequence[Constraint], order: Sequence[str]) -> "Facts":
        """``constraints`` numbered in order, then in force as a loop nest over ``order``
        brings them in (each variable with the facts it completes), so every
        component has sample points; what is left comes in last."""
        facts, seen = cls(), set()
        entries = facts.entries(constraints)
        for name in order:
            seen.add(name)
            facts._push([entry for entry in entries if name in entry[1] and entry[1] <= seen])
        facts._push([entry for entry in entries if not entry[1] or not entry[1] <= seen])
        return facts

    @property
    def in_force(self) -> List[Constraint]:
        return [fact for fact, _names, _number in self._in_force]

    def entries(self, constraints: Iterable[Constraint]) -> List[Fact]:
        """``constraints`` numbered, ready to be pushed."""
        return [(c, frozenset(c.variables), self._number(c)) for c in constraints]

    def _number(self, constraint: Constraint) -> int:
        return self._numbering.setdefault(constraint, len(self._numbering))

    def _push(self, entries: Sequence[Fact]) -> None:
        key = (self.state, tuple(number for _fact, _names, number in entries))
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = len(self._states) + 1
            self._components[state] = _joined(self._components[self.state], entries)
        self._in_force.extend(entries)
        self.state = state

    @contextlib.contextmanager
    def assuming(self, entries: Sequence[Fact]) -> Iterator[None]:
        """Keep the facts ``entries`` in force inside the block."""
        outer, outer_state = len(self._in_force), self.state
        self._push(entries)
        try:
            yield
        finally:
            del self._in_force[outer:]
            self.state = outer_state

    def _touched(self, variables: Iterable[str]) -> List[_Component]:
        """The components of the facts in force that mention one of ``variables``."""
        components = self._components[self.state]
        return list({id(c): c for name in variables for c in [components.get(name)] if c}.values())

    @staticmethod
    def _points(touched: Sequence[_Component], variables: Sequence[str]) -> Tuple[_Point, ...]:
        """Integer points of the facts in force, when one component binds all ``variables``."""
        if len(touched) == 1 and touched[0].names.issuperset(variables):
            return touched[0].points
        return ()

    def implied(self, constraint: Constraint) -> bool:
        """Whether no integer point satisfying the facts in force violates ``constraint``.

        Exact: only a rationally infeasible system — the integer negation
        ``-e - 1 >= 0`` joined to the facts, which then has no integer point
        either — counts.  Facts that share no variable with the conjunct,
        even transitively, cannot take part in a refutation and are left
        out.  A constant conjunct is its own answer, an equality is never
        implied, and each distinct question is answered once.  Shortcuts
        give the answer the exact test would: a conjunct that is a fact, or
        a fact with a larger constant, or that holds over the box, is
        implied; one that an integer point of the facts violates is not.
        """
        if constraint.expr.is_constant():
            return constraint.is_trivially_true()
        if constraint.is_equality:
            return False
        number = self._number(constraint)
        variables = constraint.variables
        touched = self._touched(variables)
        numbers = (
            touched[0].numbers
            if len(touched) == 1
            else frozenset().union(*(c.numbers for c in touched))
        )
        if number in numbers:
            return True
        key = (number, numbers)
        answer = self._implications.get(key)
        if answer is None:
            _one, terms, constant = constraint.expr.int_form()
            shifted = touched[0].shifts.get(frozenset(terms)) if len(touched) == 1 else None
            negation = constraint.negate()
            if shifted is not None and shifted <= constant:
                answer = True  # a fact with the same terms and a smaller constant
            elif len(touched) == 1 and _holds_over(touched[0].box, terms, constant):
                answer = True  # it holds over a box around the facts
            elif any(map(negation.satisfied_by, self._points(touched, variables))):
                answer = False  # a point of the facts violates it: a rational solution
            else:
                answer = fm.rows_infeasible(*_with(touched, negation))
            self._implications[key] = answer
        return answer

    def never_loses(self, term: AffineExpr, other: AffineExpr, kind: str) -> bool:
        """Whether the facts imply ``term >= other`` (``kind`` ``max``) or ``term <= other``
        (``min``): ``other`` never decides the bound."""
        difference = term - other if kind == "max" else other - term
        variables = difference.variables
        if not variables:
            return difference.int_form()[2] >= 0
        points = self._points(self._touched(variables), variables)
        if any(difference.evaluate_ratio(p)[0] < 0 for p in points):
            return False  # the facts allow a point where ``other`` decides
        return self.implied(Constraint(difference))

    def empty(self) -> bool:
        """Whether the facts in force have no rational point."""
        answer = self._emptiness.get(self.state)
        if answer is None:
            components = {id(c): c for c in self._components[self.state].values()}.values()
            answer = self._emptiness[self.state] = any(
                f.is_trivially_false() for f, names, _ in self._in_force if not names
            ) or any(c.infeasible for c in components)
        return answer

    def rows_with(self, extra: Constraint) -> Tuple[List[str], List[fm.Row]]:
        """``extra`` and the facts a question about it must see, as a reduced row system:
        the components it touches by first fact, each in numbered order — or every
        fact in numbered order when it touches all or when the facts are empty
        (an infeasible component it does not touch then decides the answer)."""
        touched = self._touched(extra.variables)
        everything = {id(c) for c in self._components[self.state].values()}
        if self.empty() or len(touched) == len(everything):
            whole = _Component((), sorted(self._in_force, key=lambda entry: entry[2]))
            return _with([whole], extra)
        return _with(sorted(touched, key=lambda component: min(component.numbers)), extra)
