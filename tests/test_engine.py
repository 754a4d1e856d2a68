"""The shared product kernel and the slot-list monomial images against
the brute-force versions and the TSeries chain in ``reference``, the
sum-of-products accumulator against a chain of products and sums, and
the demand-driven table sums against the term-by-term sums.  The packed
monomial keys against exponent tuples: round trip, graded-lex order,
the kernel's bounds and its degree limit."""

import itertools

import pytest

from hasseschmidt import (
    QQ, CoeffTable, Series, TSeries, apply_table, substitute, taylor_basis,
)
from hasseschmidt.derivations import compose_multi, taylor_derivation
from hasseschmidt.formula import table_sum
from hasseschmidt.coefffield import component_matrix
from hasseschmidt.errors import DegreeLimitExceeded
from hasseschmidt.fields import EXPONENT_CAP
from hasseschmidt.serialize import MONOMIAL_CAP, NVARS_CAP, monomials_below
from hasseschmidt.series import (
    B, DEGREE_LIMIT, _mac, _mul_slots, dot, grlex_sorted, image_sum, min_prec, monomial_image,
    monomials_of_degree, pack, unpack, variable_key,
)

import reference
from conftest import (
    FIELDS, family_for, random_family, random_hsd, random_scalar, random_series, random_table,
)

PRECISIONS = (None, 1, 2, 3, 5, 7)


def random_tseries(rng, nvars, tlen, field, precision=None):
    """Random t-coefficients, the t^0 one included (not a variable)."""
    return TSeries([
        random_series(rng, nvars, field, max_degree=3, max_terms=3, precision=precision)
        for _ in range(tlen + 1)
    ])


def test_mul_matches_brute_force(rng):
    for field in FIELDS:
        for nvars in (1, 2, 3):
            for _ in range(30):
                a, b = (
                    random_series(rng, nvars, field, max_degree=5, max_terms=5,
                                  precision=rng.choice(PRECISIONS))
                    for _ in range(2)
                )
                assert a * b == reference.product(a, b), (a, b)


def test_tseries_mul_matches_brute_force(rng):
    for field in FIELDS:
        for tlen in (1, 2, 3):
            for _ in range(10):
                prec = rng.choice(PRECISIONS)
                a, b = (random_tseries(rng, 2, tlen, field, prec) for _ in range(2))
                assert a * b == reference.tseries_product(a, b), (a, b)


def test_cut_tseries_mul_is_the_brute_force_product_reduced(rng):
    """mul_cut keeps slot k of the product below cuts[k] and the weaker
    tag, whichever is lower, and carries the weaker tag."""
    for field in FIELDS:
        for tlen in (1, 2, 3):
            for _ in range(10):
                prec = rng.choice(PRECISIONS)
                a, b = (random_tseries(rng, 2, tlen, field, prec) for _ in range(2))
                N = rng.randint(1, 6)
                cuts = range(N, N - tlen - 1, -1)
                full = reference.tseries_product(a, b)
                want = [Series(2, field, {e: c for e, c in s.tuple_terms().items() if sum(e) < cut},
                               prec)
                        for s, cut in zip(full.coeffs, cuts)]
                got = a.mul_cut(b, cuts)
                assert got == TSeries(want), (a, b, N)
                assert all(c.precision == prec for c in got.coeffs)


def test_inverse_matches_brute_force(rng):
    for field in FIELDS:
        for nvars in (1, 2, 3):
            for _ in range(15):
                a = random_series(rng, nvars, field, max_degree=4, max_terms=4,
                                  precision=rng.choice((None, 2, 4, 6)))
                a = a + random_scalar(rng, field, nonzero=True) - a.constant_term()
                target = rng.randint(1, 6)
                assert a.inverse(target) == reference.inverse(a, target), (a, target)


def test_substitute_matches_reference(rng):
    """Images whose t^0 coefficients are arbitrary polynomials."""
    for field in FIELDS:
        for nvars in (1, 2, 3):
            for tlen in (1, 2, 3):
                images = [random_tseries(rng, nvars, tlen, field) for _ in range(nvars)]
                for prec in PRECISIONS:
                    f = random_series(rng, nvars, field, max_degree=4, max_terms=4,
                                      precision=prec)
                    assert substitute(f, images) == reference.substitute(f, images), (f, images)


def test_apply_and_components_match_reference(rng):
    for field in FIELDS:
        for nvars in (1, 2, 3):
            for length in (1, 2, 4):
                D = random_hsd(rng, nvars, length, field)
                for prec in PRECISIONS:
                    f = random_series(rng, nvars, field, max_degree=4, max_terms=4,
                                      precision=prec)
                    assert D.apply(f) == reference.substitute(f, D.images), (D, f)
                    # the weight-i component is trusted to prec - i, not prec - length
                    exact = reference.substitute(Series(nvars, field, f.tuple_terms()), D.images)
                    for i in range(length + 1):
                        expected = exact.coeffs[i]
                        if prec is not None:
                            expected = expected.truncate(max(prec - i, 0))
                        assert D.apply_component(i, f) == expected, (D, f, i)


def slots_of(ts):
    """The slot list of a TSeries: one terms dict per t-degree."""
    return [c.terms for c in ts.coeffs]


def reduce_mod_J(slots, order, nvars):
    """Slot k kept below total degree order - k: the reduction modulo J_N."""
    return [{e: c for e, c in s.items() if sum(unpack(e, nvars)) < order - k}
            for k, s in enumerate(slots)]


def test_monomial_images_strip_the_first_variable_and_cache_every_step(rng):
    D = random_hsd(rng, 3, 2, QQ)
    D.apply_component(1, Series.monomial(3, QQ, (0, 2, 1)))
    assert {unpack(k, 3) for k in D._mono_cache} == {(0, 2, 1), (0, 1, 1), (0, 0, 1), (0, 0, 0)}
    D.apply_component(2, Series.monomial(3, QQ, (1, 2, 1)))
    assert {unpack(k, 3) for k in D._mono_cache} == {
        (1, 2, 1), (0, 2, 1), (0, 1, 1), (0, 0, 1), (0, 0, 0)}
    for key, image in D._mono_cache.items():
        monomial = Series.monomial(3, QQ, unpack(key, 3))
        assert image == slots_of(reference.substitute(monomial, D.images))
    cut = D._image_of_monomial(pack((2, 0, 1)), 4)
    assert {unpack(k, 3) for k in D._cut_caches[4]} == {(2, 0, 1), (1, 0, 1), (0, 0, 1), (0, 0, 0)}
    exact = reference.substitute(Series.monomial(3, QQ, (2, 0, 1)), D.images)
    assert len(cut) == 3
    assert cut == reduce_mod_J(slots_of(exact), 4, 3)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_slot_images_match_the_tseries_chain(field, rng):
    """Cut and uncut slot images of every monomial up to degree 5 against
    the TSeries chain in ``reference``, on random exact images whose t^0
    coefficients are arbitrary polynomials; the cut image at N is the
    uncut one reduced modulo J_N, and no slot keeps a zero coefficient."""
    for nvars in (1, 2, 3):
        for tlen in (1, 2, 3):
            images = [random_tseries(rng, nvars, tlen, field) for _ in range(nvars)]
            slots = [slots_of(img) for img in images]
            cache, ref_cache = {}, {}
            cut_caches = {N: {} for N in (1, 2, 4, 6)}
            ref_cut_caches = {N: {} for N in cut_caches}
            for degree in range(6):
                for exps in monomials_of_degree(nvars, degree):
                    image = monomial_image(pack(exps), slots, field, cache)
                    assert image == slots_of(reference.monomial_image(exps, images, ref_cache))
                    for N, cut_cache in cut_caches.items():
                        cuts = range(N, N - tlen - 1, -1)
                        cut = monomial_image(pack(exps), slots, field, cut_cache, cuts)
                        ref = reference.monomial_image(exps, images, ref_cut_caches[N], cuts)
                        assert cut == slots_of(ref), (exps, N)
                        assert cut == reduce_mod_J(image, N, nvars), (exps, N)
            for c in (cache, *cut_caches.values()):
                assert all(v for image in c.values() for s in image for v in s.values())


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_component_matrix_columns_are_truncated_components(field, rng):
    """Column X^beta of the weight-i matrix on the order-N quotient is
    D_i(X^beta) truncated below N - i, for every beta and i < N."""
    for nvars, length, order in ((1, 4, 5), (2, 3, 4), (3, 2, 3)):
        D = random_hsd(rng, nvars, length, field, max_degree=3, max_terms=3)
        for i in range(min(length, order - 1) + 1):
            mat = component_matrix(D, i, order)
            for c, beta in enumerate(mat.source.monomials):
                column = {mat.target.monomials[r]: row[c] for r, row in enumerate(mat.rows)
                          if c in row}
                want = D.apply_component(i, Series.monomial(nvars, field, beta))
                assert column == want.truncate(order - i).tuple_terms(), (i, beta)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_results_never_share_a_cached_dict(field, rng):
    """What apply_component, apply and substitute return holds fresh dicts:
    clearing them leaves every cached image equal to the reference, and
    the same calls give the same values again."""
    for nvars in (1, 2, 3):
        D = random_hsd(rng, nvars, 3, field)
        fs = [Series.monomial(nvars, field, e) for e in monomials_of_degree(nvars, 2)]
        fs += [random_series(rng, nvars, field, max_degree=3, max_terms=4) for _ in range(4)]
        before = [(D.apply_component(2, f), D.apply(f), substitute(f, D.images)) for f in fs]
        cached = {id(s) for image in D._mono_cache.values() for s in image}
        for f, (component, full, sub) in zip(fs, before):
            for g in (component, *full.coeffs, *sub.coeffs):
                assert id(g.terms) not in cached
                g.terms.clear()
            want = reference.substitute(f, D.images)
            assert D.apply_component(2, f) == want.coeffs[2], f
            assert D.apply(f) == want == substitute(f, D.images), f
        for key, image in D._mono_cache.items():
            want = reference.substitute(Series.monomial(nvars, field, unpack(key, nvars)),
                                        D.images)
            assert image == slots_of(want), key


@pytest.mark.parametrize("evaluate", ["apply_component", "apply", "substitute"])
def test_images_of_a_degree_3000_monomial(evaluate):
    """Monomial images are built by a loop, not a recursion, so no
    exponent runs into the interpreter's recursion limit."""
    D = taylor_derivation(2, 2, QQ, 0)
    f = Series.monomial(2, QQ, (3000, 0))
    if evaluate == "apply_component":
        value = D.apply_component(2, f)
    elif evaluate == "apply":
        value = D.apply(f).coeffs[2]
    else:
        value = substitute(f, D.images).coeffs[2]
    assert value == Series.monomial(2, QQ, (2998, 0), 3000 * 2999 // 2)


def random_operand(rng, nvars, field):
    """A random series, at times without terms, with a random tag."""
    return random_series(rng, nvars, field, max_degree=4, max_terms=rng.choice((0, 1, 3, 4)),
                         precision=rng.choice(PRECISIONS))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_dot_matches_the_chain_of_products_and_sums(field, rng):
    """Value and tag of one accumulator against a product and a sum per
    pair: operands without terms bound the tag, exact zeros do not, and
    cancelling pairs leave no zero coefficient behind."""
    for nvars in (1, 2, 3):
        for _ in range(40):
            pairs = [(random_operand(rng, nvars, field), random_operand(rng, nvars, field))
                     for _ in range(rng.randint(0, 4))]
            if pairs and rng.random() < 0.3:
                a, b = rng.choice(pairs)
                pairs.append((-a, b))
            if rng.random() < 0.3:
                pairs.append((Series.zero(nvars, field), random_operand(rng, nvars, field)))
            precision = rng.choice(PRECISIONS)
            chain = Series.zero(nvars, field, precision)
            for a, b in pairs:
                chain = chain + a * b
            got = dot(pairs, nvars, field, precision)
            assert (got, got.precision) == (chain, chain.precision), pairs
            assert all(got.terms.values())


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_product_coeff_and_table_sum_match_the_pairs(field, rng):
    """The sums built by ``dot`` against the pair-by-pair oracle, on
    tables with mixed tags and zero entries and on inputs with tags."""
    tags = (None, None, 1, 2, 3, 5)
    for n in (1, 2, 3):
        for trial in range(2):
            m = rng.randint(1, 4)
            family = taylor_basis(n, m, field) if trial else random_family(rng, n, m, field)
            table = CoeffTable(
                [[random_series(rng, n, field, max_degree=2, max_terms=2,
                                precision=rng.choice(tags)) for _ in range(n)]
                 for _ in range(m)],
                nvars=n, field=field,
            )
            fs = [Series.variable(n, field, j) for j in range(n)]
            fs += [random_series(rng, n, field, max_degree=3, precision=rng.choice(tags))
                   for _ in range(2)]
            for i in range(1, m + 1):
                for coeff, mu in reference.mu_terms(table, i):
                    got = table.product_coeff(mu, i)
                    assert (got, got.precision) == (coeff, coeff.precision), (i, mu)
                for f in fs:
                    got = table_sum(table, family, i, f)
                    assert got == reference.table_sum(table, family, i, f, min_parts=2)
                    got = apply_table(table, family, i, f)
                    assert got == reference.apply_table(table, family, i, f)


def vanishing_inputs(n, field):
    """Inputs whose D_mu(f) lose every term but keep a finite tag: X_j
    trusted to degree 2 and a zero trusted to degree 3."""
    return [Series.variable(n, field, j, precision=2) for j in range(n)] + [
        Series.zero(n, field, 3)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("kind", ["taylor", "random", "scaled"])
def test_demand_driven_sums_match_the_reference(field, kind, rng):
    """``table_sum`` builds a coefficient only where D_mu(f) has terms or a
    finite tag and reads the tags of the rows alone elsewhere; value and
    tag equal the sum over every term, on exact variables and degree-2
    monomials, on inputs whose D_mu(f) is zero with a finite tag, and on
    tables whose entries truncate to zero with a finite tag.  Each
    memoized D_mu(f) is ``compose_multi``'s."""
    for n in (1, 2, 3):
        m = rng.randint(2, 4)
        family = family_for(kind, rng, n, m, field)
        table = random_table(rng, n, m, field)
        fs = [Series.variable(n, field, j) for j in range(n)]
        fs += [Series.monomial(n, field, beta) for beta in monomials_of_degree(n, 2)]
        fs += vanishing_inputs(n, field)
        for i in range(1, m + 1):
            for f in fs:
                got = table_sum(table, family, i, f)
                want = reference.table_sum(table, family, i, f, min_parts=2)
                assert (got, got.precision) == (want, want.precision), (i, f)
                got = apply_table(table, family, i, f)
                want = reference.apply_table(table, family, i, f)
                assert (got, got.precision) == (want, want.precision), (i, f)
        for f, images in table._images.items():
            assert len(images) > 1
            for mu, g in images.items():
                assert g == compose_multi(family, mu, f), (f, mu)


def mixed_tag_table(rng, n, m, field):
    """Entries of every kind: exact, tagged with tags 0 to 3, zeros
    trusted to a finite degree and exact zeros."""
    def entry():
        kind = rng.random()
        if kind < 0.15:
            return Series.zero(n, field)
        if kind < 0.35:
            return Series.zero(n, field, rng.choice((0, 1, 2, 3)))
        return random_series(rng, n, field, max_degree=2, max_terms=2,
                             precision=rng.choice((None, None, 0, 1, 2, 3)))

    return CoeffTable([[entry() for _ in range(n)] for _ in range(m)], nvars=n, field=field)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_the_tag_of_the_sums_is_the_least_tag_below_the_level(field, rng):
    """The one tag rule of ``table_sum``: the least tag of [t^i] P_mu over
    |mu| >= 2 is the least tag of the entries at levels 1..i-1, and the
    sums that start from it equal the term-by-term sums in value and
    tag, on tables with mixed per-entry tags, tagged and exact zeros,
    and on inputs with finite tags."""
    for n in (1, 2, 3):
        for trial in range(3):
            m = 4
            family = family_for(("taylor", "random", "scaled")[trial], rng, n, m, field)
            table = mixed_tag_table(rng, n, m, field)
            fs = [Series.variable(n, field, j) for j in range(n)]
            fs += [random_series(rng, n, field, max_degree=3, precision=rng.choice((0, 1, 2, 4)))
                   for _ in range(2)]
            fs += vanishing_inputs(n, field)
            for i in range(1, m + 1):
                below = None
                for level in range(1, i):
                    for d in range(n):
                        below = min_prec(below, table.at(level, d).precision)
                least = None
                for parts in range(2, i + 1):
                    for mu in monomials_of_degree(n, parts):
                        least = min_prec(least, table.product_coeff(mu, i).precision)
                assert least == below, i
                for f in fs:
                    got = table_sum(table, family, i, f)
                    want = reference.table_sum(table, family, i, f, min_parts=2)
                    assert (got, got.precision) == (want, want.precision), (i, f)
                    got = apply_table(table, family, i, f)
                    want = reference.apply_table(table, family, i, f)
                    assert (got, got.precision) == (want, want.precision), (i, f)


# -- packed monomial keys ------------------------------------------------


@pytest.mark.parametrize("nvars", range(1, NVARS_CAP + 1))
def test_pack_and_unpack_round_trip(nvars):
    """Every vector of exponents 0 and EXPONENT_CAP, the largest a problem
    file holds; the top field is the total degree."""
    for exps in itertools.product((0, EXPONENT_CAP), repeat=nvars):
        key = pack(exps)
        assert unpack(key, nvars) == exps
        assert key >> nvars * B == sum(exps)
    for j in range(nvars):
        assert variable_key(nvars, j) == pack(tuple(int(d == j) for d in range(nvars)))


def test_packed_keys_sort_in_grlex_order(rng):
    """grlex_sorted on packed keys is grlex_key on exponent tuples, both
    ways, for every monomial below order 6 in up to four variables; the
    keys themselves sort by total degree first."""
    for nvars in range(1, 5):
        monomials = [e for d in range(6) for e in monomials_of_degree(nvars, d)]
        rng.shuffle(monomials)
        keys = [pack(e) for e in monomials]
        for reverse in (False, True):
            want = sorted(monomials, key=reference.grlex_key, reverse=reverse)
            assert [unpack(k, nvars) for k in grlex_sorted(keys, nvars, reverse)] == want
        degrees = [sum(unpack(k, nvars)) for k in sorted(keys)]
        assert degrees == sorted(degrees)


def below(series, bound):
    """The tuple-keyed terms of a series below total degree ``bound``."""
    return {e: c for e, c in series.tuple_terms().items() if bound is None or sum(e) < bound}


def packed(terms):
    return {pack(e): c for e, c in terms.items()}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_mac_matches_the_tuple_product(field, rng):
    """acc += a * b against ``reference.product`` on exponent tuples, with
    bounds one below, at and one above the product's degree and none,
    into an accumulator that already holds terms."""
    for nvars in (1, 2, 3):
        for _ in range(15):
            a, b, c = (random_series(rng, nvars, field, max_degree=4, max_terms=4)
                       for _ in range(3))
            full = reference.product(a, b)
            deg = full.degree()
            for bound in (deg - 1, deg, deg + 1, None):
                acc = dict(c.terms)
                _mac(acc, a.terms, b.terms, bound, nvars * B, field.add, field.mul)
                want = c + Series(nvars, field, below(full, bound))
                assert Series._of(nvars, field, acc, None) == want, (a, b, bound)


class CountedItems(dict):
    """A dict that counts the walks over its items."""

    walks = 0

    def items(self):
        self.walks += 1
        return super().items()


def test_mac_skips_the_rows_past_the_bound():
    """A row of a at or past the bound is left before b is walked."""
    x = Series.variable(2, QQ, 0)
    a = (1 + x) ** 4  # one row per degree 0..4
    b = CountedItems((Series.one(2, QQ) + Series.variable(2, QQ, 1)).terms)
    for bound, rows in ((None, 5), (6, 5), (3, 3), (1, 1), (0, 0)):
        b.walks = 0
        _mac({}, a.terms, b, bound, 2 * B, QQ.add, QQ.mul)
        assert b.walks == rows, bound


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_mul_slots_matches_the_tuple_product(field, rng):
    """Slot k of the product kept below cuts[k], for cuts one below, at
    and one above each slot's degree and none, against
    ``reference.tseries_product``."""
    for nvars in (1, 2):
        for tlen in (1, 2, 3):
            for _ in range(5):
                a, b = (random_tseries(rng, nvars, tlen, field) for _ in range(2))
                full = reference.tseries_product(a, b).coeffs
                for shift in (-1, 0, 1, None):
                    cuts = None if shift is None else [c.degree() + shift for c in full]
                    got = _mul_slots(slots_of(a), slots_of(b), cuts, nvars * B,
                                     field.add, field.mul)
                    want = [packed(below(c, None if cuts is None else cuts[k]))
                            for k, c in enumerate(full)]
                    assert got == want, (a, b, cuts)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_image_sum_matches_the_tuple_substitution(field, rng):
    """Every slot of sum_e c_e image(X^e) below a bound one below, at and
    one above the largest degree and none, against
    ``reference.substitute`` on exponent tuples; zero coefficients the
    sum may hold are dropped before comparing."""
    for nvars in (1, 2, 3):
        for tlen in (1, 2):
            images = [random_tseries(rng, nvars, tlen, field) for _ in range(nvars)]
            slots = [slots_of(img) for img in images]
            for _ in range(4):
                f = random_series(rng, nvars, field, max_degree=4, max_terms=4)
                full = reference.substitute(f, images).coeffs
                deg = max(c.degree() for c in full)
                for prec in (deg - 1, deg, deg + 1, None):
                    got = image_sum(f.terms, field, slots, {}, range(tlen + 1), prec)
                    got = [{e: c for e, c in s.items() if c} for s in got]
                    assert got == [packed(below(c, prec)) for c in full], (f, prec)


@pytest.mark.parametrize("nvars, j", [(1, 0), (2, 0), (2, 1), (3, 2)])
def test_products_stop_below_the_degree_limit(nvars, j):
    """X_j^(2^B - 2) * X_j reaches degree 2^B - 1; X_j^(2^B - 1) * X_j
    would reach 2^B, where an exponent field carries into the next (for
    j > 0, X_j^(2^B) would read as X_(j-1)), and raises instead, through
    every product.  A bound at the limit drops that product; a bound
    past it raises too."""
    def power(e, precision=None):
        return Series.monomial(nvars, QQ, [e if d == j else 0 for d in range(nvars)],
                               precision=precision)

    x = Series.variable(nvars, QQ, j)
    top = DEGREE_LIMIT - 1
    assert (power(top - 1) * x).tuple_terms() == power(top).tuple_terms()
    assert (power(top - 1) * x).degree() == top
    at_limit = power(top)
    with pytest.raises(DegreeLimitExceeded):
        at_limit * x
    with pytest.raises(DegreeLimitExceeded):
        dot([(x, at_limit)], nvars, QQ)
    with pytest.raises(DegreeLimitExceeded):
        TSeries([at_limit, x]) * TSeries([x, at_limit])
    with pytest.raises(DegreeLimitExceeded):
        power(top, DEGREE_LIMIT + 1) * x
    with pytest.raises(DegreeLimitExceeded):
        power(DEGREE_LIMIT)
    cut = power(top, DEGREE_LIMIT) * x
    assert cut.is_zero() and cut.precision == DEGREE_LIMIT


def test_the_cli_caps_stay_below_the_degree_limit():
    """No problem file the caps admit reaches the degree limit.

    A term of a file has degree at most d0 = NVARS_CAP * EXPONENT_CAP,
    and its length m is below MONOMIAL_CAP: the order is at least
    m + 1, with at least that many monomials below it.  D_i adds at most
    i (d0 - 1) to a degree, so D_mu(X_j) with |mu| <= m has degree at
    most 1 + m (d0 - 1), and so has every slot of a monomial image it
    needs, less the degree of its input.  A coefficient [t^i] P_mu is a
    product of at most m entries.  So the largest product any command
    forms is [t^i] P_mu * D_mu(X_j), of degree at most
    m d0 + 1 + m (d0 - 1); a determinant of the degree-1 matrix, at most
    NVARS_CAP d0, and a Leibniz product E(f) E(g) of polynomials of
    degree <= 3, at most 6 d0, stay below it."""
    assert monomials_below(MONOMIAL_CAP + 1, 1, MONOMIAL_CAP) > MONOMIAL_CAP
    d0 = NVARS_CAP * EXPONENT_CAP
    m = MONOMIAL_CAP - 1
    worst = m * d0 + 1 + m * (d0 - 1)
    assert max(NVARS_CAP * d0, 6 * d0) < worst < DEGREE_LIMIT
