import itertools
import math
import operator
import random

import pytest

import field_oracle
from lrctower import galois
from lrctower.errors import (
    DivideByZero,
    NoSquareRoot,
    NotAdmissible,
    NotDivisor,
    NotPrime,
    SpecMismatch,
    TooLarge,
)


def idx_set(elements):
    return {e.index for e in elements}


def _is_prime(n):
    """Trial division, independent of the library's primality rule."""
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_prime_field_is_plain_modular_arithmetic():
    f2 = galois.field_create(2, 1)
    assert f2.modulus == (0, 1)
    assert (f2.one() + f2.one()).is_zero()


def test_gf9_modulus_matches_enumeration_oracle():
    # oracle: first monic quadratic over Z_3 without a root, coefficients
    # enumerated low-degree-first
    def has_root(c0, c1):
        return any((x * x + c1 * x + c0) % 3 == 0 for x in range(3))

    expected = next(
        (c0, c1, 1)
        for c0, c1 in itertools.product(range(3), repeat=2)
        if not has_root(c0, c1)
    )
    f9 = galois.field_create(3, 2)
    assert f9.modulus == expected
    assert f9.modulus == (1, 0, 1)  # x^2 + 1, so x^2 = -1


def test_field_create_rejects_composite_characteristic():
    with pytest.raises(NotPrime):
        galois.field_create(4, 1)


def test_the_primality_rule_matches_trial_division():
    # field_create and subgroup_exponent share one rule, bounds._prime_power
    for n in range(-3, 1200):
        if _is_prime(n):
            assert galois.field_create(n, 1).p == n
            assert galois.subgroup_exponent(1, n) == 1
            continue
        for call in (lambda: galois.field_create(n, 1), lambda: galois.subgroup_exponent(1, n)):
            with pytest.raises(NotPrime, match=f"^{n} is not prime$"):
                call()


def test_field_create_size_guard():
    with pytest.raises(TooLarge):
        galois.field_create(2, 21)


def test_field_create_is_deterministic():
    a = galois.field_create(5, 4)
    b = galois.field_create(5, 4)
    assert a.modulus == b.modulus
    assert a is b  # cached


def _remainder(num, den, p):
    """num mod the monic den over Z_p, coefficient lists low degree first."""
    num = list(num)
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = num[i] % p
        for j, dj in enumerate(den):
            num[i - len(den) + 1 + j] -= c * dj
    return [c % p for c in num[: len(den) - 1]]


def _first_irreducible(p, w):
    """First monic irreducible of degree w over the full, unskipped
    enumeration of (c0, ..., c_{w-1}), by trial division."""
    for tail in itertools.product(range(p), repeat=w):
        cand = list(tail) + [1]
        if not any(
            not any(_remainder(cand, list(div) + [1], p))
            for d in range(1, w // 2 + 1)
            for div in itertools.product(range(p), repeat=d)
        ):
            return tuple(cand)


def test_modulus_is_first_irreducible_of_the_full_enumeration():
    small = [(p, w) for p in range(2, 4097) if _is_prime(p)
             for w in range(1, 13) if p**w <= 4096]
    assert len(small) == 604  # 564 primes, 40 proper prime powers
    for p, w in small:
        assert galois.field_create(p, w).modulus == _first_irreducible(p, w), (p, w)
    reference = {
        (2, 8): (1, 0, 0, 0, 1, 1, 0, 1, 1),
        (2, 10): (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
        (2, 12): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
        (3, 6): (1, 0, 0, 0, 1, 1, 1),
        (3, 8): (1, 0, 0, 0, 0, 1, 1, 0, 1),
        (5, 4): (1, 0, 1, 1, 1),
        (5, 6): (1, 0, 0, 0, 1, 1, 1),
        (5, 8): (1, 0, 0, 0, 0, 1, 1, 0, 1),
        (2, 1): (0, 1),
    }
    for (p, w), modulus in reference.items():
        assert galois.field_create(p, w).modulus == modulus


def test_moduli_are_irreducible_by_exhaustive_factor_scan():
    for p, w in [(2, 4), (3, 3), (5, 2), (7, 2)]:
        f = galois.field_create(p, w)
        # no monic factor of degree 1..w-1 divides the modulus
        for d in range(1, w):
            for tail in itertools.product(range(p), repeat=d):
                den = list(tail) + [1]
                assert any(galois._poly_mod(list(f.modulus), den, p))


@pytest.mark.parametrize("p,w", [(2, 2), (3, 2), (2, 4), (5, 2), (2, 6)])
def test_field_axioms_on_random_triples(p, w):
    f = galois.field_create(p, w)
    rng = random.Random(1234 + f.q)
    elems = list(f.elements())
    for _ in range(10_000):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + (-a)).is_zero()
        if not a.is_zero():
            assert a * a.inverse() == f.one()


def test_additive_and_multiplicative_orders():
    f9 = galois.field_create(3, 2)
    for x in f9.elements():
        assert (x + (-x)).is_zero()
        if not x.is_zero():
            assert x ** (f9.q - 1) == f9.one()


def _euclid_inverse(f, a):
    # extended Euclid on polynomials over Z_p, independent of pow-based inverse
    p = f.p

    def degree(poly):
        for i in range(len(poly) - 1, -1, -1):
            if poly[i] % p:
                return i
        return -1

    def polydiv(num, den):
        num = [c % p for c in num]
        dd = degree(den)
        lead_inv = pow(den[dd], p - 2, p)
        quot = [0] * (max(len(num) - dd, 1))
        for i in range(degree(num), dd - 1, -1):
            c = num[i] % p
            if c:
                factor = (c * lead_inv) % p
                quot[i - dd] = factor
                for j in range(dd + 1):
                    num[i - dd + j] = (num[i - dd + j] - factor * den[j]) % p
        return quot, num

    r0, r1 = list(f.modulus), list(a.coeffs)
    t0, t1 = [0], [1]
    while degree(r1) > 0:
        q, rem = polydiv(r0, r1)
        r0, r1 = r1, rem
        # t0 - q*t1
        prod = [0] * (len(q) + len(t1))
        for i, qc in enumerate(q):
            for j, tc in enumerate(t1):
                prod[i + j] = (prod[i + j] + qc * tc) % p
        new_t = [(x - y) % p for x, y in zip(t0 + [0] * len(prod), prod + [0] * len(t0))]
        t0, t1 = t1, new_t
    c_inv = pow(r1[degree(r1)], p - 2, p)
    coeffs = [(c_inv * t) % p for t in t1]
    coeffs = (coeffs + [0] * f.w)[: f.w]
    return f.element(coeffs)


def test_inverse_against_extended_euclid_oracle():
    f9 = galois.field_create(3, 2)
    rng = random.Random(99)
    elems = [e for e in f9.elements() if not e.is_zero()]
    for _ in range(1000):
        a = rng.choice(elems)
        assert a.inverse() == _euclid_inverse(f9, a)
        assert a.inverse() * a == f9.one()


def test_inverse_of_zero_raises():
    f9 = galois.field_create(3, 2)
    with pytest.raises(DivideByZero):
        f9.zero().inverse()


def test_mixed_field_operands_rejected():
    a = galois.field_create(3, 2).one()
    b = galois.field_create(2, 2).one()
    with pytest.raises(SpecMismatch):
        a + b


def test_elements_of_equal_fields_built_apart_compare_equal():
    f9 = galois.field_create(3, 2)
    twin = galois.FieldSpec(f9.p, f9.w, f9.modulus)  # not the cached object
    assert twin is not f9 and twin == f9 and hash(twin) == hash(f9)
    for i in range(f9.q):
        a, b = galois.FieldElement(f9, i), galois.FieldElement(twin, i)
        assert a == b and b == a and hash(a) == hash(b)
        assert a != galois.FieldElement(twin, (i + 1) % f9.q)
    other = galois.FieldSpec(3, 2, (2, 2, 1))  # another modulus: another field
    assert galois.FieldElement(f9, 1) != galois.FieldElement(other, 1)
    assert galois.FieldElement(f9, 1) != galois.field_create(3, 1).one()
    assert galois.FieldElement(f9, 1) != 1


def test_field_arith_dispatch():
    f9 = galois.field_create(3, 2)
    x = f9.from_index(5)
    assert (x + (-x)).is_zero()
    assert x ** (f9.q - 1) == f9.one()
    assert x.inverse() * x == f9.one()
    assert (x - x).is_zero()


@pytest.mark.parametrize("p,w", [(2, 2), (3, 2), (5, 1)])
def test_index_ops_are_built_once_and_back_the_element_ops(p, w):
    f = galois.field_create(p, w)
    add, mul = galois.index_ops(f)
    assert galois.index_ops(f) is galois.index_ops(f)
    minus_one = f.scalar(-1)
    for x in f.elements():
        assert (-x).index == (x * minus_one).index == mul(x.index, p - 1)
        for y in f.elements():
            assert (x + y).index == add(x.index, y.index)
            assert (x * y).index == mul(x.index, y.index)
            assert x - y + y == x


def test_artin_schreier_kernel_small_fields():
    f4 = galois.field_create(2, 2)
    assert idx_set(galois.artin_schreier_kernel(f4)) == {0, 1}

    f9 = galois.field_create(3, 2)
    kernel = galois.artin_schreier_kernel(f9)
    # exhaustive oracle
    expected = [a for a in f9.elements() if (a**3 + a).is_zero()]
    assert kernel == expected
    assert len(kernel) == 3
    beta = f9.element([0, 1])
    assert idx_set(kernel) == {0, beta.index, (-beta).index}
    assert beta * beta == -f9.one()

    f16 = galois.field_create(2, 4)
    assert len(galois.artin_schreier_kernel(f16)) == 4


@pytest.mark.parametrize("p,w", [(2, 2), (3, 2), (2, 4), (5, 2), (7, 2), (2, 6)])
def test_kernel_size_is_ell(p, w):
    f = galois.field_create(p, w)
    assert len(galois.artin_schreier_kernel(f)) == f.ell


def test_kernel_requires_even_degree():
    with pytest.raises(NoSquareRoot):
        galois.artin_schreier_kernel(galois.field_create(3, 3))


def test_unit_subgroup_examples():
    f9 = galois.field_create(3, 2)
    assert idx_set(galois.unit_subgroup(f9, 2)) == {1, 2}  # {1, -1}
    assert idx_set(galois.unit_subgroup(f9, 1)) == {1}

    f64 = galois.field_create(2, 6)
    h = galois.unit_subgroup(f64, 7)
    assert len(h) == 7
    for x in h:
        assert x**7 == f64.one()
        assert x**8 == x  # inside F_8


def test_unit_subgroup_rejects_non_divisor():
    f9 = galois.field_create(3, 2)
    with pytest.raises(NotDivisor):
        galois.unit_subgroup(f9, 3)
    for u, p in [(-3, 2), (-1, 3), (-1, 2), (0, 5), (-4, 5)]:  # no t > 0 with u | p^t - 1
        with pytest.raises(NotDivisor):
            galois.subgroup_exponent(u, p)


def test_subgroup_exponent():
    assert galois.subgroup_exponent(1, 2) == 1
    assert galois.subgroup_exponent(3, 2) == 2  # 3 | 2^2 - 1
    assert galois.subgroup_exponent(7, 2) == 3
    assert galois.subgroup_exponent(2, 5) == 1


def test_repair_subspace_examples():
    f9 = galois.field_create(3, 2)
    w_full = galois.repair_subspace(f9, 1, 1)
    assert w_full == galois.artin_schreier_kernel(f9)

    assert idx_set(galois.repair_subspace(f9, 2, 0)) == {0}

    f16 = galois.field_create(2, 4)
    w = galois.repair_subspace(f16, 1, 2)
    assert len(w) == 4
    assert set(w) == set(galois.artin_schreier_kernel(f16))


def test_repair_subspace_closure():
    # closed under addition and multiplication by the unit subgroup
    for (p, w, u, v) in [(3, 2, 2, 1), (2, 4, 3, 2), (2, 6, 7, 3), (5, 2, 4, 1)]:
        f = galois.field_create(p, w)
        W = set(galois.repair_subspace(f, u, v))
        H = galois.unit_subgroup(f, u)
        for a in W:
            for b in W:
                assert a + b in W
            for c in H:
                assert c * a in W


def test_repair_subspace_rejects_bad_params():
    f9 = galois.field_create(3, 2)
    with pytest.raises(NotAdmissible):
        galois.repair_subspace(f9, 2, 2)  # v exceeds w/2
    f64 = galois.field_create(2, 6)
    with pytest.raises(NotAdmissible):
        galois.repair_subspace(f64, 7, 1)  # 7 does not divide 2^1 - 1


def test_serialization_round_trip():
    f9 = galois.field_create(3, 2)
    again = galois.field_from_json(f9.to_json())
    assert again is f9
    x = f9.from_index(7)
    assert f9.element(x.to_json()) == x
    with pytest.raises(SpecMismatch):
        galois.field_from_json({"p": 3, "w": 2, "modulus": [2, 0, 1]})


def test_canonical_index_round_trip():
    f = galois.field_create(5, 2)
    for i in range(f.q):
        assert f.from_index(i).index == i


def _schoolbook(f, a, b):
    """Independent product oracle: full convolution, then reduction."""
    conv = [0] * (2 * f.w - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return tuple(galois._poly_mod(conv, f.modulus, f.p))


@pytest.mark.parametrize("p,w", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4), (5, 2), (2, 6)])
def test_kernel_matches_polynomial_oracle_on_every_pair(p, w):
    f = galois.field_create(p, w)
    # coefficient vectors in canonical index order: c_0 varies fastest
    vecs = [tuple(reversed(t)) for t in itertools.product(range(p), repeat=w)]
    for i, c in enumerate(vecs):
        assert f.element(c).index == i
        assert f.from_index(i).coeffs == c
    add, mul, inv = f.tables()
    elems = list(f.elements())
    for a in elems:
        ca = vecs[a.index]
        for b in elems:
            cb = vecs[b.index]
            assert (a * b).coeffs == _schoolbook(f, ca, cb)
            assert (a + b).coeffs == tuple((x + y) % p for x, y in zip(ca, cb))
            assert (a - b).coeffs == tuple((x - y) % p for x, y in zip(ca, cb))
            assert mul[a.index][b.index] == (a * b).index
            assert add[a.index][b.index] == (a + b).index
        if not a.is_zero():
            assert inv[a.index] == a.inverse().index


def test_tables_equal_the_numpy_oracle_on_every_field_to_256():
    fields = [(p, w) for p in range(2, 257) if _is_prime(p)
              for w in range(1, 9) if p**w <= 256]
    assert len(fields) == 70
    for p, w in fields:
        f = galois.field_create(p, w)
        add, mul, inv = f.tables()
        oadd, omul, oinv = field_oracle.tables(f)
        assert [list(row) for row in add] == oadd.tolist(), (p, w)
        assert [list(row) for row in mul] == omul.tolist(), (p, w)
        assert list(inv) == oinv.tolist(), (p, w)


@pytest.mark.parametrize("p,w", [(257, 1), (17, 2), (2, 9), (3, 6)])
def test_tables_above_256_are_a_one_line_too_large(p, w):
    with pytest.raises(TooLarge) as exc:
        galois.field_create(p, w).tables()
    assert str(exc.value) == f"lookup tables limited to q <= 256, got q={p**w}"


@pytest.mark.parametrize("data,error", [
    ({"w": 2, "modulus": [1, 0, 1]}, SpecMismatch),
    ({"p": "3", "w": 2, "modulus": [1, 0, 1]}, SpecMismatch),
    ({"p": 3, "w": 2, "modulus": None}, SpecMismatch),
    ([3, 2], SpecMismatch),
    ({"p": 10**30 + 57, "w": 1, "modulus": [0, 1]}, TooLarge),
    ({"p": 2, "w": 10**12, "modulus": [0, 1]}, TooLarge),
])
def test_field_from_json_rejects_malformed_input(data, error):
    with pytest.raises(error):
        galois.field_from_json(data)


def _admissible_pairs(f):
    """Every (u, v) that `check_admissible` accepts, (1, 0) included."""
    ell = f.ell
    for v in range(f.w // 2 + 1):
        g = ell - 1 if v == 0 else math.gcd(f.p**v - 1, ell - 1)
        for u in range(1, g + 1):
            if g % u == 0:
                yield u, v


@pytest.mark.parametrize("p,w", [(2, 2), (3, 2), (2, 4), (5, 2), (7, 2), (2, 6), (2, 8)])
def test_index_helpers_match_the_element_definitions(p, w):
    f = galois.field_create(p, w)
    elems, ell, one = list(f.elements()), f.ell, f.one()
    kernel = [a for a in elems if (a**ell + a).is_zero()]
    assert galois.artin_schreier_kernel(f) == kernel
    for u, v in _admissible_pairs(f):
        H = [x for x in elems if not x.is_zero() and x**u == one and x**ell == x]
        assert galois.unit_subgroup(f, u) == H
        h = galois.subgroup_exponent(u, p)  # u | p^v - 1, so h divides v
        subfield = [x for x in elems if x ** (p**h) == x]
        span, dim = {f.zero()}, 0
        for cand in kernel:  # the first v/h independent kernel elements
            if dim == v // h:
                break
            if cand not in span:
                span = {s + c * cand for s in span for c in subfield}
                dim += 1
        assert galois.repair_subspace(f, u, v) == sorted(span)


@pytest.mark.parametrize("call,error,match", [
    pytest.param(lambda: galois.field_create(3, 2).element([1]), SpecMismatch,
                 "expected 2 coefficients", id="element-wrong-length"),
    pytest.param(lambda: galois.field_create(3, 2).from_index(9), SpecMismatch,
                 r"index 9 outside \[0, 9\)", id="from-index-q"),
    pytest.param(lambda: galois.field_create(2, 0), NotAdmissible, "exponent must be >= 1",
                 id="field-create-w-0"),
    pytest.param(lambda: galois.subgroup_exponent(2, 2), NotDivisor, "shares a factor",
                 id="subgroup-exponent-u-shares-p"),
    pytest.param(lambda: galois.check_admissible(galois.field_create(2, 4), 0, 0),
                 NotAdmissible, "u must be positive", id="check-admissible-u-0"),
])
def test_galois_error_paths(call, error, match):
    with pytest.raises(error, match=match):
        call()


# -- element operands and field documents -----------------------------------------------

@pytest.mark.parametrize("other", [1.5, "1", None], ids=["float", "string", "none"])
def test_an_operand_that_is_no_integer_or_element_is_a_spec_mismatch(other):
    one = galois.field_create(3, 2).one()
    for op in (operator.add, operator.sub, operator.mul, operator.lt):
        with pytest.raises(SpecMismatch, match=r"is not an integer$"):
            op(one, other)


def test_a_numpy_integer_operand_is_the_scalar_an_int_is():
    import numpy as np

    f = galois.field_create(3, 2)
    x = f.from_index(5)
    for n in (0, 1, 2, 4):
        assert x + np.int64(n) == x + n
        assert x - np.int64(n) == x - n
        assert x * np.int64(n) == x * n
        assert (x < np.int64(n)) == (x < n)


def test_element_of_a_non_sequence_is_a_spec_mismatch():
    f = galois.field_create(3, 2)
    for coeffs in (5, None, 2.5, {0, 1}):
        with pytest.raises(SpecMismatch, match=r"are not a sequence$"):
            f.element(coeffs)
    assert f.element((1, 2)) == f.element([1, 2]) == f.from_index(7)


@pytest.mark.parametrize("key,value,name", [
    ("p", True, "p"), ("w", True, "w"), ("p", 3.0, "p"), ("w", 2.0, "w"),
    ("modulus", [True, False, True], "modulus coefficient"),
    ("modulus", [1, 0, 1.0], "modulus coefficient"),
])
def test_a_field_document_takes_json_integers_alone(key, value, name):
    doc = {"p": 3, "w": 2, "modulus": [1, 0, 1]}
    assert galois.field_from_json(doc) is galois.field_create(3, 2)
    bad = value if key != "modulus" else next(c for c in value if type(c) is not int)
    with pytest.raises(SpecMismatch, match=rf"^{name} {bad!r} is not an integer$"):
        galois.field_from_json({**doc, key: value})
