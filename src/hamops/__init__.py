"""Exact symbolic verification of non-homogeneous hydrodynamic Hamiltonian operators."""

from .expr import (
    AlgebraicSymbol,
    Assumption,
    Context,
    Expr,
    OpaqueFunction,
    SamplePoints,
    differentiate,
    evaluate_at,
    is_identically_zero,
    normalize,
    parse,
    probabilistic_zero_test,
    render,
)

__all__ = [
    "AlgebraicSymbol",
    "Assumption",
    "Context",
    "Expr",
    "OpaqueFunction",
    "SamplePoints",
    "differentiate",
    "evaluate_at",
    "is_identically_zero",
    "normalize",
    "parse",
    "probabilistic_zero_test",
    "render",
]

__version__ = "0.1.0"
