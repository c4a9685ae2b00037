"""Exact polyhedral substrate (PolyLib / PIP / CLooG-backend replacement).

This subpackage implements, from scratch and over exact rational arithmetic,
the polyhedral operations the paper's framework relies on:

* affine expressions and affine functions (:mod:`repro.polyhedral.affine`),
* polyhedra/polytopes defined by affine constraints
  (:mod:`repro.polyhedral.polyhedron`),
* Fourier--Motzkin projection (:mod:`repro.polyhedral.fourier_motzkin`),
* images of polyhedra under affine functions (:mod:`repro.polyhedral.image`),
* rectangular unions of data spaces (:mod:`repro.polyhedral.hull`),
* integer-point enumeration and counting (:mod:`repro.polyhedral.counting`),
* parametric per-dimension bounds, the PIP substitute
  (:mod:`repro.polyhedral.parametric`), and
* dependence polyhedra (:mod:`repro.polyhedral.dependence`).
"""

from repro.polyhedral.affine import AffineExpr, AffineFunction
from repro.polyhedral.constraints import Constraint
from repro.polyhedral.polyhedron import Polyhedron
from repro.polyhedral.image import image_of_polyhedron, preimage_of_polyhedron
from repro.polyhedral.hull import rectangular_hull
from repro.polyhedral.counting import count_integer_points, enumerate_integer_points
from repro.polyhedral.parametric import parametric_bounds, ParametricBound, QuasiAffineBound
from repro.polyhedral.dependence import Dependence, DependenceAnalyzer

__all__ = [
    "AffineExpr",
    "AffineFunction",
    "Constraint",
    "Polyhedron",
    "image_of_polyhedron",
    "preimage_of_polyhedron",
    "rectangular_hull",
    "count_integer_points",
    "enumerate_integer_points",
    "parametric_bounds",
    "ParametricBound",
    "QuasiAffineBound",
    "Dependence",
    "DependenceAnalyzer",
]
