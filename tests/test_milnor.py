from __future__ import annotations

import itertools
from collections import Counter

import pytest

from poissonsing import (
    NotIsolated,
    Poly,
    WeightSystem,
    check_isolated,
    parse_poly,
)
from poissonsing import milnor
from poissonsing.linalg import Echelon, basis_of
from poissonsing.cli import main
from poissonsing.milnor import socle_bound
from poissonsing.operators import kept_matrix, operator_matrix

from .conftest import echelon_rank, jacobian_columns, jacobian_graded_dim

W111 = WeightSystem((1, 1, 1))


def fermat(n: int) -> Poly:
    return parse_poly("x^%d+y^%d+z^%d" % (n, n, n))


def fermat_quotient_count(n: int, degree: int) -> int:
    # independent oracle: monomials with all exponents below n-1... the
    # quotient by <x^{n-1}, y^{n-1}, z^{n-1}> keeps exponents <= n-2
    return sum(
        1
        for exps in itertools.product(range(n - 1), repeat=3)
        if sum(exps) == degree
    )


class TestGradedDims:
    def test_sphere(self):
        phi = fermat(2)
        assert jacobian_graded_dim(phi, W111, 0) == 1
        for i in range(1, 5):
            assert jacobian_graded_dim(phi, W111, i) == 0

    def test_cubic_against_enumeration(self):
        phi = fermat(3)
        for i in range(6):
            assert jacobian_graded_dim(phi, W111, i) == fermat_quotient_count(3, i)
        assert [jacobian_graded_dim(phi, W111, i) for i in range(4)] == [1, 3, 3, 1]

    def test_xyz_degree_two(self):
        assert jacobian_graded_dim(parse_poly("x*y*z"), W111, 2) == 3


class TestGate:
    def test_fermat_milnor_numbers(self):
        for n in (2, 3, 4):
            data = check_isolated(fermat(n), W111)
            assert data.mu == (n - 1) ** 3
            for i, count in data.graded_dims:
                assert count == fermat_quotient_count(n, i)

    def test_xyz_rejected_with_pure_power_witness(self):
        with pytest.raises(NotIsolated) as err:
            check_isolated(parse_poly("x*y*z"), W111)
        assert err.value.witness_degree == 4
        assert err.value.witness_monomial == (4, 0, 0)

    def test_singular_line_rejected(self):
        with pytest.raises(NotIsolated) as err:
            check_isolated(parse_poly("x^2+y^2"), W111)
        assert err.value.witness_degree == 1
        assert err.value.witness_monomial == (0, 0, 1)

    def test_low_degree_fails_fast(self):
        with pytest.raises(NotIsolated):
            check_isolated(parse_poly("x"), W111)
        with pytest.raises(NotIsolated):
            check_isolated(parse_poly("x^2"), WeightSystem((1, 1, 2)))

    def test_negative_socle_bound_rejected(self):
        # degree 10 exceeds each weight but the claimed top degree is negative
        with pytest.raises(NotIsolated) as err:
            check_isolated(parse_poly("x^2"), WeightSystem((5, 6, 7)))
        assert err.value.witness_degree == 0

    def test_a_rejected_verify_leaves_no_koszul_matrix(self, capsys):
        # the gate builds its Jacobian columns with operator_matrix, which
        # keeps nothing, so the rejection leaves no kept matrix
        before = kept_matrix.cache_info().currsize
        assert main(["verify", "--suite", "cohomology", "--phi", "x^2*y+z^3"]) == 3
        assert "rejected by the gate" in capsys.readouterr().err
        assert kept_matrix.cache_info().currsize == before

    def test_weighted_catalog_entry(self):
        data = check_isolated(parse_poly("x^2+y^3+z^5"), WeightSystem((15, 10, 6)))
        assert data.mu == 8
        assert data.socle_bound == 28
        assert max(i for i, _ in data.graded_dims) <= 28


class TestBasis:
    def test_cubic_basis_order(self, cubic_milnor):
        names = [str(Poly.monomial(m)) for m, _ in cubic_milnor.basis]
        assert names == ["1", "z", "y", "x", "y*z", "x*z", "x*y", "x*y*z"]
        assert [d for _, d in cubic_milnor.basis] == [0, 1, 1, 1, 2, 2, 2, 3]

    def test_sphere_basis_is_unit(self):
        data = check_isolated(fermat(2), W111)
        assert data.basis == (((0, 0, 0), 0),)

    def test_quartic_basis_is_low_exponent_cube(self):
        data = check_isolated(fermat(4), W111)
        monos = {m for m, _ in data.basis}
        assert monos == {m for m in itertools.product(range(3), repeat=3)}
        assert len(data.basis) == 27

    def test_socle_bound_formula(self):
        assert socle_bound(3, W111) == 3
        assert socle_bound(30, WeightSystem((15, 10, 6))) == 28

    def test_variable_multiples_reduce_into_basis(self, cubic, cubic_milnor):
        # x_j * u stays inside span(J + chosen basis) at the right degree,
        # i.e. the chosen monomials really span the quotient in every degree
        w = cubic.weights

        by_degree: dict[int, list] = {}
        for m, deg in cubic_milnor.basis:
            by_degree.setdefault(deg, []).append(m)
        for deg, monos in by_degree.items():
            for axis, m in itertools.product(range(3), monos):
                raised = list(m)
                raised[axis] += 1
                target_degree = deg + w.weights[axis]
                target, cols = jacobian_columns(cubic, target_degree)
                ech = Echelon()
                for col in cols:
                    ech.insert(col)
                for b in by_degree.get(target_degree, []):
                    ech.insert(target.coords_of(Poly.monomial(b)))
                assert ech.contains(target.coords_of(Poly.monomial(tuple(raised))))

    def test_basis_spans_every_graded_piece(self, cubic, cubic_milnor):
        # dim check: J_i echelon extended by the chosen monomials fills A_i
        by_degree: dict[int, list] = {}
        for m, deg in cubic_milnor.basis:
            by_degree.setdefault(deg, []).append(m)
        for i in range(0, cubic_milnor.socle_bound + 1):
            target, cols = jacobian_columns(cubic, i)
            ech = Echelon()
            for col in cols:
                ech.insert(col)
            for b in by_degree.get(i, []):
                ech.insert(target.coords_of(Poly.monomial(b)))
            assert echelon_rank(ech) == target.dim


def quotient_monomials_by_membership(P, i):
    """The gate's scan with a membership test before each insert: the same
    monomials, two echelon calls for each one kept."""
    jacobian = operator_matrix(P, "koszul1", i - P.degree)
    ech = Echelon()
    for col in jacobian.columns:
        ech.insert(col)
    kept = []
    for j, m in enumerate(jacobian.target.monomials[0]):
        if not ech.contains({j: 1}):
            kept.append(m)
            ech.insert({j: 1})
    return kept


def test_the_gate_reduces_each_monomial_once(monkeypatch, catalog_structures):
    for P, mu in catalog_structures:
        calls: Counter = Counter()
        with monkeypatch.context() as patch:
            for name in ("insert", "insert_int", "contains"):
                def counted(self, vec, name=name, real=getattr(Echelon, name)):
                    calls[name] += 1
                    return real(self, vec)

                patch.setattr(Echelon, name, counted)
            data = check_isolated.__wrapped__(P.phi, P.weights)
        top = socle_bound(P.degree, P.weights) + P.weights.max_weight
        scanned = sum(
            basis_of("X1", i - P.degree, P.weights).dim + basis_of("X0", i, P.weights).dim
            for i in range(top + 1)
        )
        assert calls == {"insert": scanned}, P
        with monkeypatch.context() as patch:
            patch.setattr(milnor, "_quotient_monomials", quotient_monomials_by_membership)
            assert check_isolated.__wrapped__(P.phi, P.weights) == data, P
        assert data.mu == mu
