"""Verification suites: structural identities and degree-by-degree exactness.

Each family either checks an algebraic identity on the whole of a finite
probe set on which it is complete (vector calculus identities, Jacobi,
delta o delta = 0, Casimir commutation; see identities_suite) or checks an
exactness/dimension statement on every degree of a window (Koszul rows, de
Rham columns, the 2-cocycle decomposition, the closed-form (co)homology
against the rank computations).  All checks are exact and deterministic; a
failed check carries its first counterexample in its details.  The Euler
formulas are checked on the operators the engine ranks: the de Rham
blocks (operators.operator_columns), so they certify matrix_of's exponent
factors, while vectorcalc's Poly grad, curl and divergence are checked by the
phi-free families.  Identities of
operators of order at most 2 take probes, not degrees:
boundary_squared_vanishes has 40 cases (30 VECTOR_PROBES, then 10 PROBES),
two_cocycles_are_gradients_plus_multiples 20 (PROBES through delta^2 o grad
and delta^2(f*grad(phi))) and then one per window degree, and
boundary_equals_signed_coboundary 28.  Every delta^k, here and in the
certificates, runs on the symbol of c*phi's structure (P.integral, through
linalg.apply_symbol): both sides of each check scale by one power of c, so it
checks what phi does.  Certified families are evaluated once
per structure by complexes.certificate and shared with the engine, which
skips columns on their strength; koszul_squared_vanishes and
de_rham_squared_vanishes license the skips of the table's Koszul and de Rham
rows, whose ranks the Koszul suite reads, and are not reported.

The sixteen (co)homology spaces are Space records in four families of four
(space_family).  run_suite computes each family its suites need once per
call, hands it to them as an argument and returns it with the results, keyed
(block, side); the report builds its sixteen entries from those families, so
each space and each comparison run once per run.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import product

from . import cohomology as ch
from . import homology as hm
from .complexes import PROBES, VECTOR_PROBES, certificate, cochain_dim, first_failure
from .complexes import space_label, stack_rank
from .linalg import KINDS, Echelon, apply_symbol, basis_of, kernel_of_columns, offset_vector
from .linalg import rank_of_columns, term_maps
from .milnor import MilnorData, check_isolated
from .operators import operator_columns, operator_symbol, step
from .poisson import PoissonStructure
from .poly import Poly
from .vectorcalc import VecPoly, cross, curl, divergence, dot, euler_field, grad

SUITE_NAMES = ("identities", "koszul", "cohomology", "homology", "surface")


@dataclass
class CheckResult:
    name: str
    passed: bool
    cases: int
    details: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = " -- %s" % self.details if self.details and not self.passed else ""
        return "%s %-42s (%d cases)%s" % (status, self.name, self.cases, extra)


def _certified(name: str, evaluation: tuple[int, str]) -> CheckResult:
    """The result of a family from its (cases run, first failure or "")."""
    cases, failure = evaluation
    return CheckResult(name, not failure, cases, failure)


def _first_failure(name: str, cases: Iterable, check: Callable) -> CheckResult:
    """The family's cases run in order up to the first failure
    (complexes.first_failure)."""
    return _certified(name, first_failure(cases, check))


# ---------------------------------------------------------------------------
# The sixteen spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Space:
    """One (co)homology space on one window: its closed form, the dims the
    closed form predicts and the dims the ranks give."""

    description: ch.ModuleDescription
    predicted: ch.GradedDims
    computed: ch.GradedDims
    grading: str

    @property
    def matches(self) -> bool:
        return self.first_difference() is None

    def first_difference(self) -> int | None:
        return self.predicted.first_difference(self.computed)

    def difference(self) -> str:
        return difference_text(self.grading, self.predicted, self.computed)


def difference_text(grading: str, predicted: ch.GradedDims, computed: ch.GradedDims) -> str:
    """'degree i: predicted p, computed c' at the first degree where the two
    differ ('form degree' under the form grading), or '' when they agree."""
    i = predicted.first_difference(computed)
    if i is None:
        return ""
    unit = "form degree" if grading == "form" else "degree"
    return "%s %d: predicted %d, computed %d" % (unit, i, predicted.dim_at(i), computed.dim_at(i))


def space_family(
    P: PoissonStructure, M: MilnorData, window: ch.Window, block: str, side: str
) -> tuple[Space, ...]:
    """H^0..H^3 (block "cohomology") or H_0..H_3 (block "homology") of A
    (side "ambient") or of A/<phi> (side "surface") on a derivation window.

    Homology is graded by form degree, on the window shifted by |w|.  The
    table of each family's closed form and engine is built at each call
    from the attributes of cohomology and homology, so a wrapped or patched
    one is the one that runs (a table built at import would keep the
    functions it first saw).
    """
    describe, compute = {
        ("cohomology", "ambient"): (ch.closed_form, ch.brute_force_dims),
        ("cohomology", "surface"): (ch.surface_closed_form, ch.surface_brute_force_dims),
        ("homology", "ambient"): (hm.ambient_homology_description, hm.homology_dims),
        ("homology", "surface"): (hm.surface_homology_description, hm.surface_homology_dims),
    }[block, side]
    grading, degrees = "derivation", window
    if block == "homology":
        grading, degrees = "form", hm.form_window(P, window)
    spaces = []
    for k in range(4):
        desc = describe(P, M, k)
        spaces.append(
            Space(desc, ch.predicted_dims(desc, degrees), compute(P, k, degrees), grading)
        )
    return tuple(spaces)


# ---------------------------------------------------------------------------
# Identity families (exact on a stated probe set)
# ---------------------------------------------------------------------------


def identities_suite(P: PoissonStructure, window: ch.Window) -> list[CheckResult]:
    """The vector-calculus identities, the bracket, Jacobi, delta o delta = 0
    and the Casimir phi, each checked on the whole of a stated probe set.

    Each family compares (bi)differential operators of order at most 2 in
    each argument, with constant or polynomial coefficients.  Such an
    operator L vanishes identically iff it vanishes on PROBES (resp.
    VECTOR_PROBES) in each argument: L(x^a, x^b) is a! b! c_ab plus
    multiples of the c_a'b' with a' <= a, b' <= b, (a', b') != (a, b), so
    the probes recover every coefficient c_ab in turn.  Hence:
    every probe pair for the phi-free families and the bracket; the 40
    probes through delta^0..2 (delta^{k+1} o delta^k has order 2, and
    [delta^k, phi] order 0); Jacobi once on (x, y, z), since the Jacobiator
    of a biderivation is an alternating triderivation.  The Euler formulas
    are linear in f on each degree, so they run on every monomial m of every
    window degree i, on the de Rham blocks the Koszul suite ranks: grad(m).e_w
    = i*m on the de_rham3 column of m in X^3_{i-|w|}, and div(m*e_w) =
    (i+|w|)*m on the weighted sum of the de_rham1 columns of x_a*m*e_a in
    X^1_i, by index and exponent arithmetic, the bases looked up once per
    degree.  The gradient, curl, divergence and partials of each
    probe are computed once per call, not once per pair: the bracket is
    taken on the gradient its partials make (PoissonStructure.
    gradient_bracket, which P.bracket calls).  A failure names
    the first failing probe.  The two delta families are
    complexes.certificate, evaluated once per structure on the symbols of
    delta^k and shared with the engine, which skips stack columns on their
    strength.
    """
    w, s = P.weights, P.weight_sum
    px, py, pz = P.nabla_phi
    # the derivatives of each probe, once per call (looked up at call time)
    scalars = [(f, grad(f)) for f in PROBES]
    vectors = [(g, curl(g), divergence(g)) for g in VECTOR_PROBES]
    partials = [(f, VecPoly((f.partial(0), f.partial(1), f.partial(2)))) for f in PROBES]

    def curl_product(case):
        (f, grad_f), (g, curl_g, _) = case
        ok = curl(g * f) == cross(grad_f, g) + curl_g * f
        return None if ok else "f=%s, g=%s" % (f, g)

    def div_product(case):
        (f, grad_f), (g, _, div_g) = case
        ok = divergence(g * f) == dot(grad_f, g) + div_g * f
        return None if ok else "f=%s, g=%s" % (f, g)

    def div_cross(case):
        (f, curl_f, _), (g, curl_g, _) = case
        ok = divergence(cross(f, g)) == dot(curl_f, g) - dot(f, curl_g)
        return None if ok else "f=%s, g=%s" % (f, g)

    def raised(m, a):  # the exponent of x_a * x^m
        return m[:a] + (m[a] + 1,) + m[a + 1:]

    def summed(terms):  # the sum of (key, value) terms as a map, zeros dropped
        total: dict = {}
        for key, v in terms:
            total[key] = total.get(key, 0) + v
        return {key: v for key, v in total.items() if v}

    def window_pieces():  # (i, the monomials of A_i) for each window degree that has one
        for i in range(window[0], window[1] + 1):
            monomials = basis_of("X0", i, w).monomials[0]
            if monomials:
                yield i, monomials

    def gradients():
        """(i, m, grad(m): its column in X^2_{i-|w|}, and x_a*n and w_a at each target index)"""
        for i, monomials in window_pieces():
            target = basis_of("X2", i - s, w).monomials
            slots = [(raised(n, a), w_a) for a, w_a in enumerate(w.weights) for n in target[a]]
            for m, column in zip(monomials, operator_columns(P, "de_rham3", i - s)):
                yield i, m, column, slots

    def euler_degree(case):  # grad(m).e_w = sum_a w_a * x_a * d(m)/dx_a = i * m
        i, m, column, slots = case
        dot_e_w = summed((slots[k][0], slots[k][1] * v) for k, v in column.items())
        return None if dot_e_w == ({m: i} if i else {}) else "f=%s" % Poly.monomial(m)

    def euler_fields():
        """(i, m's index in A_i, m, div(x_a*m*e_a): three columns of X^1_i)"""
        for i, monomials in window_pieces():
            columns = operator_columns(P, "de_rham1", i)
            index = basis_of("X1", i, w)._index  # (offset, position map) per component
            for t, m in enumerate(monomials):
                fields = [columns[offset + positions[raised(m, a)]]
                          for a, (offset, positions) in enumerate(index)]
                yield i, t, m, fields

    def euler_div(case):  # div(m*e_w) = sum_a w_a * div(x_a*m*e_a) = (i + |w|) * m
        i, t, m, fields = case
        div = summed((k, w_a * v) for w_a, col in zip(w.weights, fields) for k, v in col.items())
        return None if div == {t: i + s} else "f=%s" % Poly.monomial(m)

    def curl_grad(case):
        f, grad_f = case
        return None if curl(grad_f).is_zero() else "f=%s" % f

    def div_cross_grads(case):
        (f, grad_f), (g, grad_g) = case
        ok = divergence(cross(grad_f, grad_g)).is_zero()
        return None if ok else "f=%s, g=%s" % (f, g)

    def jacobi(case):
        return None if P.jacobiator(*case).is_zero() else "f=%s, g=%s, h=%s" % case

    def bracket_expansion(case):
        (f, grad_f), (g, grad_g) = case
        (fx, fy, fz), (gx, gy, gz) = grad_f, grad_g
        direct = pz * (fx * gy - fy * gx) + px * (fy * gz - fz * gy) + py * (fz * gx - fx * gz)
        return None if P.gradient_bracket(grad_f, grad_g) == direct else "f=%s, g=%s" % (f, g)

    coordinates = tuple(Poly.variable(a) for a in range(3))
    families = [
        ("curl_of_scalar_product", product(scalars, vectors), curl_product),
        ("div_of_scalar_product", product(scalars, vectors), div_product),
        ("div_of_cross_product", product(vectors, vectors), div_cross),
        ("euler_degree_formula", gradients(), euler_degree),
        ("euler_divergence_formula", euler_fields(), euler_div),
        ("curl_of_gradient_vanishes", scalars, curl_grad),
        ("div_of_gradient_cross_vanishes", product(scalars, scalars), div_cross_grads),
        ("jacobi_identity", (coordinates,), jacobi),
    ]
    results = [_first_failure(name, cases, body) for name, cases, body in families]
    licensing = ("coboundary_squared_vanishes", "casimir_multiplication_commutes")
    results += [_certified(name, certificate(P, name)) for name in licensing]
    results.append(
        _first_failure("bracket_matches_biderivation", product(partials, partials), bracket_expansion)
    )
    return results


# ---------------------------------------------------------------------------
# Koszul / de Rham exactness (per degree)
# ---------------------------------------------------------------------------


def _second_part_witness(P: PoissonStructure, i: int) -> str:
    """A vector killed by .grad(phi) but not hit by cross-with-grad(phi)."""
    image = Echelon()
    for col in operator_columns(P, "koszul2", i - P.degree):
        image.insert(col)
    rows = cochain_dim(P, 0, i + P.degree)
    for vec in kernel_of_columns(operator_columns(P, "koszul1", i), rows):
        if not image.contains(vec):
            witness = basis_of(KINDS[1], i, P.weights).element_from_coords(vec)
            check = dot(witness, P.nabla_phi)  # type: ignore[arg-type]
            return "witness %s at degree %d, dot with grad(phi) = %s" % (witness, i, check)
    return "exactness defect at degree %d" % i


def koszul_suite(P: PoissonStructure, window: ch.Window) -> list[CheckResult]:
    """The Koszul rows of grad(phi), the de Rham columns and the 2-cocycle
    decomposition, degree by degree.  Every rank is a stack of the Koszul or
    de Rham row of the table (complexes.stack_rank), ranked once however
    many rows read it (D_3 at degree i serves injectivity at i and first
    exactness at i + deg(phi)).  Each per-degree family is one exactness
    check at one X^p: the kernel of the map out of X^p at degree i against
    the image of the map into it, one step before (operators.step), up to
    the row's homology (grad(phi) is a regular sequence; de Rham keeps the
    constants); at the ends (X^4, de Rham's X^0) the rank is 0 unranked.
    D o D = 0 holds for any phi, so a phi whose Koszul row is not exact
    (x*y*z) keeps its ranks and its witness."""
    degrees = range(window[0], window[1] + 1)

    def rank(family: str, p: int, i: int) -> int:
        return stack_rank(P, family, "ambient", p, i)

    def exactness(family: str, p: int) -> Callable[[int], str | None]:
        """defect(i): None if kernel = image + the row's homology at X^p_i (0, but 1
        for de Rham's constants at X^3_{-|w|}), else 'degree i: kernel a vs image b'."""
        e, shift = step(P, family)

        def defect(i):
            ker, im = cochain_dim(P, p, i) - rank(family, p, i), rank(family, p - e, i - shift)
            homology = 1 if (family, p, i) == ("de_rham", 3, -P.weight_sum) else 0
            ok = ker == im + homology
            return None if ok else "degree %d: kernel %d vs image %d" % (i, ker, im)

        return defect

    def second_exact(i, defect=exactness("koszul", 1)):
        return defect(i) and _second_part_witness(P, i)

    def z2_spanned(case):
        kind, i = case  # a probe f, or a degree for "span"
        if kind != "span":
            image = grad(i) if kind == "gradient" else P.integral.nabla_phi * i
            zero = not any(apply_symbol(operator_symbol(P, "delta2"), term_maps(image)))
            return None if zero else "a %s is not a 2-cocycle at f=%s" % case
        cocycles = cochain_dim(P, 2, i) - stack_rank(P, "cohomology", "ambient", 2, i)
        gradients = operator_columns(P, "de_rham3", i)
        span = rank_of_columns([*gradients, *operator_columns(P, "koszul3", i - P.degree)])
        ok = span == cocycles
        return None if ok else "degree %d: span %d vs cocycles %d" % (i, span, cocycles)

    # f -> delta2(grad f) has order 2 and f -> delta2(f*grad phi) order 1, so
    # each vanishes iff it does on PROBES (see identities_suite)
    z2_cases = [*product(("gradient", "grad(phi) multiple"), PROBES), *product(("span",), degrees)]
    families = [
        ("koszul_multiplication_injective", degrees, exactness("koszul", 3)),
        ("koszul_first_exactness", degrees, exactness("koszul", 2)),
        ("koszul_second_exactness", degrees, second_exact),
        ("de_rham_gradient_kernel", degrees, exactness("de_rham", 3)),
        ("de_rham_curl_exactness", degrees, exactness("de_rham", 2)),
        ("de_rham_divergence_exactness", degrees, exactness("de_rham", 1)),
        ("de_rham_divergence_onto", degrees, exactness("de_rham", 0)),
        ("two_cocycles_are_gradients_plus_multiples", z2_cases, z2_spanned),
    ]
    return [_first_failure(name, cases, body) for name, cases, body in families]


# ---------------------------------------------------------------------------
# Cohomology families
# ---------------------------------------------------------------------------


def _closed_form_results(block: str, side: str, spaces: tuple[Space, ...]) -> list[CheckResult]:
    """One '<side>_<label>_matches_closed_form' result per space (label
    complexes.space_label), detailing the first degree where the predicted
    and computed dims differ."""
    results = []
    for k, space in enumerate(spaces):
        lo, hi = space.predicted.window
        text, label = space.difference(), space_label(block, k)
        name = "%s_%s_matches_closed_form" % (side, label)
        results.append(CheckResult(name, not text, hi - lo + 1, text and "%s %s" % (label, text)))
    return results


def cohomology_suite(
    P: PoissonStructure, M: MilnorData, window: ch.Window, spaces: tuple[Space, ...]
) -> list[CheckResult]:
    lo, hi = window
    d, s = P.degree, P.weight_sum
    results = _closed_form_results("cohomology", "ambient", spaces)

    def casimir_bound(i):
        cocycles = cochain_dim(P, 0, i) - stack_rank(P, "cohomology", "ambient", 0, i)
        expected = 1 if (i >= 0 and i % d == 0) else 0
        if cocycles != expected:
            return "degree %d: %d Casimir cocycles" % (i, cocycles)
        if expected and any(apply_symbol(
                operator_symbol(P, "delta0"), term_maps(P.integral.phi ** (i // d)))):
            return "phi^%d is not a cocycle" % (i // d)
        return None

    results.append(
        _first_failure("casimir_cocycles_spanned_by_phi_powers", range(lo, hi + 1), casimir_bound)
    )

    # divergence rigidity: g.grad(phi)=0 and div(g)=a*phi^r force a=0
    def rigid(r):
        i = r * d
        off = cochain_dim(P, 0, i + d)
        stacked = Echelon()
        for t, c in zip(operator_columns(P, "koszul1", i), operator_columns(P, "de_rham1", i)):
            stacked.insert({**t, **offset_vector(c, off)})
        # phi^r is a constrained divergence iff it adds nothing to the span
        phi_r = basis_of(KINDS[0], i, P.weights).coords_of(P.integral.phi**r)
        if not stacked.insert(offset_vector(phi_r, off)):
            return "phi^%d is a constrained divergence" % r
        return None

    results.append(_first_failure("divergence_rigidity_alpha_zero", range(hi // d + 1), rigid))

    # one-form of the Euler multiples: delta1(phi^i u_j e_w) in closed form
    e_w = euler_field(P.weights)

    powers = [P.integral.phi**i for i in range(3)]  # (c*phi)^i: both sides scale by c^(i+1)

    def euler_multiple(case):
        j, u, grad_u, deg_u, i = case
        f = powers[i] * u
        lhs = apply_symbol(operator_symbol(P, "delta1"), term_maps(e_w * f))
        rhs = (P.integral.nabla_phi * f) * (deg_u - d + s) - (grad_u * powers[i + 1]) * d
        return None if lhs == term_maps(rhs) else "u%d, power %d" % (j, i)

    multiples = [
        (j, u, grad_u, deg_u, i)
        for j, (u, deg_u) in enumerate(M.basis_polys()) for grad_u in (grad(u),) for i in (0, 1)
    ]
    results.append(_first_failure("euler_multiple_coboundary_formula", multiples, euler_multiple))

    # grad(phi) is a coboundary exactly when deg(phi) differs from |w|
    structure_class = basis_of(KINDS[2], P.coboundary_degree, P.weights).coords_of(
        P.integral.nabla_phi)
    base = stack_rank(P, "cohomology", "ambient", 1, 0)
    exact = rank_of_columns([*operator_columns(P, "delta1", 0), structure_class]) == base
    ok = exact == (d != s)
    text = "" if ok else "exactness of the structure class is wrong"
    results.append(CheckResult("bracket_class_exact_iff_degree_differs", ok, 1, text))
    return results


# ---------------------------------------------------------------------------
# Surface and homology families
# ---------------------------------------------------------------------------


def surface_suite(
    P: PoissonStructure, window: ch.Window, spaces: tuple[Space, ...]
) -> list[CheckResult]:
    lo, hi = window
    results = _closed_form_results("cohomology", "surface", spaces)

    def top_vanishes(i):
        if ch.surface_cochain_dim(P, 3, i) != 0:
            return "3-derivations of the surface survive at degree %d" % i
        return None

    results.append(_first_failure("surface_top_derivations_vanish", range(lo, hi + 1), top_vanishes))
    return results


def homology_suite(
    P: PoissonStructure,
    M: MilnorData,
    window: ch.Window,
    ambient: tuple[Space, ...],
    surface: tuple[Space, ...],
) -> list[CheckResult]:
    """boundary o boundary = 0 and the duality and descent certificates (as
    the engine reads them), the closed forms of the eight homology spaces, and
    H_0 of the surface against the Jacobian quotient."""
    lo, hi = hm.form_window(P, window)
    degrees = range(lo, hi + 1)
    results = [
        _certified("boundary_squared_vanishes", certificate(P, "boundary_squared_vanishes")),
        _certified("boundary_equals_signed_coboundary", hm.duality_identity_holds(P)),
    ]
    results += _closed_form_results("homology", "ambient", ambient)
    results += _closed_form_results("homology", "surface", surface)

    milnor_dims = {i: n for i, n in M.graded_dims if i in degrees}
    ok = surface[0].computed.as_dict() == milnor_dims
    results.append(
        CheckResult(
            "surface_H_0_equals_jacobian_quotient", ok, len(degrees),
            "" if ok else "dims differ from the Jacobian quotient",
        )
    )
    results.append(_certified("quotient_boundary_well_defined", hm.projection_commutes(P)))
    return results


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


# The space families each suite reads, as (block, side) keys.
SUITE_FAMILIES: dict[str, tuple[tuple[str, str], ...]] = {
    "cohomology": (("cohomology", "ambient"),),
    "surface": (("cohomology", "surface"),),
    "homology": (("homology", "ambient"), ("homology", "surface")),
}

Spaces = dict[tuple[str, str], tuple[Space, ...]]


def run_suite(
    P: PoissonStructure,
    suite: str,
    window: ch.Window | None = None,
    milnor: MilnorData | None = None,
) -> tuple[list[CheckResult], Spaces]:
    """Run one named suite (or 'all'); returns its results and the space
    families it computed, keyed (block, side).  A caller that has run the
    gate passes its Milnor data; otherwise the gate runs here, once, and
    raises NotIsolated when a suite that needs the Milnor data is requested
    for a rejected phi."""
    window = tuple(ch.default_window(P) if window is None else window)
    names = SUITE_NAMES if suite == "all" else (suite,)
    results: list[CheckResult] = []
    spaces: Spaces = {}
    for name in names:
        if name == "identities":
            results.extend(identities_suite(P, window))
            continue
        if name == "koszul":
            results.extend(koszul_suite(P, window))
            continue
        if name not in SUITE_FAMILIES:
            raise ValueError("unknown suite %r" % name)
        if milnor is None:
            milnor = check_isolated(P.phi, P.weights)
        families = [space_family(P, milnor, window, *key) for key in SUITE_FAMILIES[name]]
        spaces.update(zip(SUITE_FAMILIES[name], families))
        if name == "cohomology":
            results.extend(cohomology_suite(P, milnor, window, *families))
        elif name == "surface":
            results.extend(surface_suite(P, window, *families))
        else:
            results.extend(homology_suite(P, milnor, window, *families))
    return results, spaces
