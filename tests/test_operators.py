"""Every operator matrix against the operator applied to each basis element.

The engine fills matrices from first-order symbols (linalg.matrix_of); the
oracle here evaluates the operator itself on every source basis element of
every graded piece of the default windows and reads off target coordinates.
The grading of each named operator (operators.pieces) is checked against the
pieces its matrices map between.
"""

from __future__ import annotations

import pytest

from poissonsing import (
    DegreeMismatch,
    WeightSystem,
    basis_of,
    cross,
    curl,
    default_form_window,
    default_window,
    divergence,
    dot,
    grad,
    matrix_of,
    parse_poly,
    symbol_of,
)
from poissonsing.complexes import skipped, stack_columns, stack_rank
from poissonsing.linalg import columns_off_pivots
from poissonsing.operators import (
    PIECES,
    kept_matrix,
    named_operator,
    operator_columns,
    operator_matrix,
    operator_symbol,
    pieces,
)

from .conftest import boundary_matrix, echelon_of, echelon_rank, oracle_columns, structure


def _window(window):
    lo, hi = window
    return range(lo, hi + 1)


def _check(matrix, op):
    assert matrix.columns == oracle_columns(op, matrix.source, matrix.target)


def test_coboundaries(catalog_structures):
    for P, _ in catalog_structures:
        for i in _window(default_window(P)):
            for k in (0, 1, 2):
                _check(operator_matrix(P, "delta%d" % k, i), lambda c: P.delta(k, c))


def test_boundaries(catalog_structures):
    for P, _ in catalog_structures:
        for i in _window(default_form_window(P)):
            for k in (1, 2, 3):
                _check(boundary_matrix(P, k, i), lambda c: P.boundary(k, c))


def _koszul_operators(P):
    """The Koszul maps D_1, D_2, D_3 of grad(phi), as operators on cochains."""
    nabla = P.nabla_phi
    return {1: lambda v: dot(v, nabla), 2: lambda v: cross(v, nabla), 3: lambda f: nabla * f}


def test_horizontal_products(catalog_structures):
    for P, _ in catalog_structures:
        koszul = _koszul_operators(P)
        for i in _window(default_window(P)):
            for k in (0, 1, 2, 3):
                _check(kept_matrix(P, "phi%d" % k, i), lambda c: c * P.phi)
            for k in (1, 2, 3):
                _check(kept_matrix(P, "koszul%d" % k, i), koszul[k])


def test_vertical_operators(catalog_structures):
    for P, _ in catalog_structures:
        lo = -P.weight_sum
        for i in range(lo, lo + 20):
            _check(kept_matrix(P, "de_rham3", i), grad)
            _check(kept_matrix(P, "de_rham2", i), curl)
            _check(kept_matrix(P, "de_rham1", i), divergence)


def test_relation_presentations(catalog_structures):
    """The relation entry (k, i), the cycle stack of the Koszul row of
    A/<phi>, is [D_k | phi on X^{k-1}] into X^{k-1} at degree i + deg(phi),
    for k = 1..4 (no D_4), on every degree that the surface cochains of the
    default window and the relations of the form window (one deg(phi)
    lower) read: the row's stack_columns are its columns less D_k's at the
    row's skip set, and its stack_rank is the rank of all of them."""
    for P, _ in catalog_structures:
        koszul = _koszul_operators(P)
        lo, hi = default_window(P)
        for i in range(lo - P.degree, hi + 1):
            for k in (1, 2, 3, 4):
                phi = kept_matrix(P, "phi%d" % (k - 1), i)
                assert (phi.source.kind, phi.target.kind) == ("X%d" % (k - 1),) * 2
                _check(phi, lambda c: c * P.phi)
                if k == 4:
                    columns = phi.columns
                else:
                    D = kept_matrix(P, "koszul%d" % k, i)
                    assert (D.source.kind, D.target) == ("X%d" % k, phi.target)
                    _check(D, koszul[k])
                    columns = D.columns + phi.columns
                    kept = columns_off_pivots(D.columns, skipped(P, "koszul", "surface", k, i))
                    kept += phi.columns
                    assert list(stack_columns(P, "koszul", "surface", k, i)) == kept, (k, i)
                rank = stack_rank(P, "koszul", "surface", k, i)
                assert rank == echelon_rank(echelon_of(columns)), (k, i)


@pytest.mark.parametrize("name", sorted(PIECES))
def test_operator_columns_read_kept_blocks_and_fill_the_others(name):
    # phi, Koszul and de Rham blocks are read off the kept block; a
    # coboundary or boundary block is filled on its unskipped columns and
    # is not kept
    P = structure("x^3+y^3+z^3", (1, 1, 1))
    whole = operator_matrix(P, name, 2)
    skip = 0b101 & ((1 << whole.source.dim) - 1)
    before = kept_matrix.cache_info().currsize
    assert operator_columns(P, name, 2) == whole.columns
    assert operator_columns(P, name, 2, skip) == columns_off_pivots(whole.columns, skip)
    if name.startswith(("delta", "boundary")):
        assert kept_matrix.cache_info().currsize == before
    else:
        assert operator_columns(P, name, 2) is kept_matrix(P, name, 2).columns


def test_second_order_operator_is_rejected():
    with pytest.raises(ValueError, match="order at most one"):
        symbol_of(lambda f: f.partial(0).partial(0), 1)
    with pytest.raises(ValueError, match="order at most one"):
        symbol_of(lambda v: grad(divergence(v)), 3)


def test_rational_coefficients_are_probed_exactly():
    q = parse_poly("x^2*y - 3*z^3 + 1/2*x*y*z")
    r = parse_poly("x^3*y - 2/3*y*z^3")

    def op(f):
        return f * q + r * f.partial(1)

    w = WeightSystem((1, 1, 1))
    source, target = basis_of("X0", 4, w), basis_of("X0", 7, w)
    assert matrix_of(symbol_of(op, 1), source, target).columns == oracle_columns(
        op, source, target
    )


def test_a_rational_phi_builds_integer_matrices():
    # unequal denominators: the engine works on the integral multiple c*phi
    # (c = lcm(2, 3) = 6), so every column of every operator has int entries,
    # c times the user's operator applied to the basis element; de Rham reads
    # no phi, so it does not scale with c
    P = structure("1/2*x^3+1/3*y^3+z^3", (1, 1, 1))
    assert P.integral.phi == parse_poly("3*x^3+2*y^3+6*z^3")
    assert P.phi == parse_poly("1/2*x^3+1/3*y^3+z^3")
    assert sorted(PIECES) == sorted(
        ["delta0", "delta1", "delta2", "boundary1", "boundary2", "boundary3",
         "koszul1", "koszul2", "koszul3", "phi0", "phi1", "phi2", "phi3",
         "de_rham1", "de_rham2", "de_rham3"])
    for name in PIECES:
        op = named_operator(P, "phi" if name.startswith("phi") else name)
        factor = 1 if name.startswith("de_rham") else 6
        for i in _window(default_window(P)):
            m = operator_matrix(P, name, i)
            assert all(type(v) is int for col in m.columns for v in col.values()), (name, i)
            expected = oracle_columns(lambda c: op(c) * factor, m.source, m.target)
            assert m.columns == expected, (name, i)


def test_wrong_target_degree_raises():
    P = structure("x^3+y^3+z^3", (1, 1, 1))
    symbol = operator_symbol(P, "phi0")
    with pytest.raises(DegreeMismatch, match=r"component 1 does not lie in X0 at degree 4"):
        matrix_of(symbol, basis_of("X0", 0, P.weights), basis_of("X0", 4, P.weights))


def test_wrong_arity_raises():
    P = structure("x^3+y^3+z^3", (1, 1, 1))
    with pytest.raises(DegreeMismatch, match="expected a vector cochain for X2"):
        matrix_of(operator_symbol(P, "phi0"), basis_of("X0", 0, P.weights),
                  basis_of("X2", 3, P.weights))
    with pytest.raises(DegreeMismatch):
        matrix_of(operator_symbol(P, "phi0"), basis_of("X1", 0, P.weights),
                  basis_of("X1", 3, P.weights))


# Each named operator: its source and target pieces and its shift, N for the
# (co)boundaries, deg(phi) for the horizontal operators and 0 for de Rham.
GRADING = {
    "delta0": (0, 1, "N"),
    "delta1": (1, 2, "N"),
    "delta2": (2, 3, "N"),
    "boundary1": (2, 3, "N"),
    "boundary2": (1, 2, "N"),
    "boundary3": (0, 1, "N"),
    "koszul1": (1, 0, "d"),
    "koszul2": (2, 1, "d"),
    "koszul3": (3, 2, "d"),
    "phi0": (0, 0, "d"),
    "phi1": (1, 1, "d"),
    "phi2": (2, 2, "d"),
    "phi3": (3, 3, "d"),
    "de_rham1": (1, 0, 0),
    "de_rham2": (2, 1, 0),
    "de_rham3": (3, 2, 0),
}


@pytest.mark.parametrize("name", sorted(GRADING))
def test_each_matrix_maps_the_declared_pieces(name):
    # a weighted structure, where N = -1 and deg(phi) = 30 differ in sign
    P = structure("x^2+y^3+z^5", (15, 10, 6))
    p, q, unit = GRADING[name]
    shift = {"N": P.coboundary_degree, "d": P.degree, 0: 0}[unit]
    assert pieces(P, name) == (p, q, shift)
    for i in range(-P.weight_sum, P.degree + 2, 7):
        m = operator_matrix(P, name, i)
        assert (m.source.kind, m.source.degree) == ("X%d" % p, i), i
        assert (m.target.kind, m.target.degree) == ("X%d" % q, i + shift), i
        assert operator_symbol(P, name).source_components == len(m.source.monomials)


@pytest.mark.parametrize(
    "name", ["delta3", "koszul0", "phi4", "curl1", "phi", "delta-1", "de_rham0", "de_rham4"]
)
def test_an_operator_outside_the_table_is_refused(name):
    P = structure("x^3+y^3+z^3", (1, 1, 1))
    for build in (lambda: pieces(P, name), lambda: operator_matrix(P, name, 0),
                  lambda: operator_symbol(P, name), lambda: kept_matrix(P, name, 0),
                  lambda: operator_columns(P, name, 0)):
        with pytest.raises(ValueError, match="no operator %r" % name):
            build()


def test_phi_shares_one_symbol_per_component_count():
    P = structure("x^3+y^3+z^3", (1, 1, 1))
    assert operator_symbol(P, "phi0") is operator_symbol(P, "phi3")
    assert operator_symbol(P, "phi1") is operator_symbol(P, "phi2")
    assert operator_symbol(P, "phi0") != operator_symbol(P, "phi1")


def test_a_skipped_source_fills_the_other_columns():
    P = structure("x^3+y^3+z^3", (1, 1, 1))
    whole = operator_matrix(P, "delta1", 2)
    skip = 0b1000101
    part = operator_matrix(P, "delta1", 2, skip)
    assert part.source.dim == whole.source.dim - 3 and part.target is whole.target
    assert part.columns == [c for j, c in enumerate(whole.columns) if not skip >> j & 1]
