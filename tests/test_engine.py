"""The shared product kernel, the flat t-series products and the flat
monomial images against the brute-force versions and the TSeries chain
in ``reference``, the
sum-of-products accumulator against a chain of products and sums, and
the demand-driven table sums against the term-by-term sums.  The packed
monomial keys against exponent tuples: round trip, graded-lex order,
the kernel's bounds and its degree limit, on X-keys and on the flat
keys of X^beta t^k."""

import itertools
import math

import pytest

from hasseschmidt import (
    GF, QQ, CoeffTable, HSDerivation, Series, TSeries, apply_table, substitute, taylor_basis,
)
from hasseschmidt.derivations import (
    compose_multi, integrate, taylor_delta_table, taylor_derivation,
)
from hasseschmidt.formula import table_sum
from hasseschmidt import series
from hasseschmidt.coefffield import QuotientBasis, component_matrix
from hasseschmidt.errors import DegreeLimitExceeded, HasseSchmidtError, IncompatibleAmbient
from hasseschmidt.fields import EXPONENT_CAP
from hasseschmidt.serialize import MONOMIAL_CAP, NVARS_CAP, monomials_below
from hasseschmidt.series import (
    _FIELD_MASK, B, DEGREE_LIMIT, _mac, cut_images, dot, grlex_sorted, image_sum, min_prec,
    monomial_image, monomials_of_degree, pack, unpack, variable_key,
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


def flat_of(ts):
    """The flat form of a TSeries, built from its exponent tuples:
    X^beta t^k keyed by pack(beta + (k,))."""
    return {pack(e + (k,)): c for k, s in enumerate(ts.coeffs) for e, c in s.tuple_terms().items()}


def reduce_mod_J(flat, order, nvars):
    """The terms of a flat element with |beta| + k below order: the
    reduction modulo J_N = (X, t)^N."""
    return {e: c for e, c in flat.items() if sum(unpack(e, nvars + 1)) < order}


def test_monomial_images_strip_the_first_variable_and_cache_every_step(rng):
    D = random_hsd(rng, 3, 2, QQ)
    D.apply_component(1, Series.monomial(3, QQ, (0, 2, 1)))
    assert {unpack(k, 3) for k in D._mono_cache} == {(0, 2, 1), (0, 1, 1), (0, 0, 1), (0, 0, 0)}
    D.apply_component(2, Series.monomial(3, QQ, (1, 2, 1)))
    assert {unpack(k, 3) for k in D._mono_cache} == {
        (1, 2, 1), (0, 2, 1), (0, 1, 1), (0, 0, 1), (0, 0, 0)}
    for key, image in D._mono_cache.items():
        monomial = Series.monomial(3, QQ, unpack(key, 3))
        assert image == flat_of(reference.substitute(monomial, D.images))
    # a component matrix caches the cut image of every source monomial
    component_matrix(D, 1, 4)
    assert list(D._cut_caches[4]) == list(QuotientBasis(3, 4).index)
    cut = D._cut_caches[4][pack((2, 0, 1))]
    exact = reference.substitute(Series.monomial(3, QQ, (2, 0, 1)), D.images)
    assert {e & _FIELD_MASK for e in cut} <= {0, 1, 2}
    assert cut == reduce_mod_J(flat_of(exact), 4, 3)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_slot_images_match_the_tseries_chain(field, rng):
    """Uncut flat images (``monomial_image``) and cut ones (``cut_images``
    over every monomial up to degree 5) against the TSeries chain in
    ``reference``, on random exact images whose t^0 coefficients are
    arbitrary polynomials; the cut image at N is the uncut one reduced
    modulo J_N, and no image keeps a zero coefficient or a term past
    t^tlen."""
    for nvars in (1, 2, 3):
        for tlen in (1, 2, 3):
            images = [random_tseries(rng, nvars, tlen, field) for _ in range(nvars)]
            flats = [flat_of(img) for img in images]
            keys = [pack(e) for d in range(6) for e in monomials_of_degree(nvars, d)]
            cache, ref_cache = {}, {}
            cut_sets = {N: cut_images(keys, flats, tlen, field, N) for N in (1, 2, 4, 6)}
            ref_cut_caches = {N: {} for N in cut_sets}
            for degree in range(6):
                for exps in monomials_of_degree(nvars, degree):
                    image = monomial_image(pack(exps), flats, tlen, field, cache)
                    assert image == flat_of(reference.monomial_image(exps, images, ref_cache))
                    for N, cut_set in cut_sets.items():
                        cuts = range(N, N - tlen - 1, -1)
                        cut = cut_set[pack(exps)]
                        ref = reference.monomial_image(exps, images, ref_cut_caches[N], cuts)
                        assert cut == flat_of(ref), (exps, N)
                        assert cut == reduce_mod_J(image, N, nvars), (exps, N)
            assert all(list(cut_set) == keys for cut_set in cut_sets.values())
            for c in (cache, *cut_sets.values()):
                assert all(v for image in c.values() for v in image.values())
                assert all(e & _FIELD_MASK <= tlen for image in c.values() for e in image)


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
def test_component_matrices_build_each_cut_image_once(field, rng, monkeypatch):
    """The first matrix of a (member, order) makes one ``_mac`` per
    non-constant monomial of the source basis; every other weight, and
    the same weight again, reads the cached images and makes none.  A
    new order makes a new sweep."""
    calls = []
    mac = series._mac

    def counted(*args):
        calls.append(args)
        mac(*args)

    monkeypatch.setattr(series, "_mac", counted)
    for nvars, length, order in ((1, 4, 5), (2, 3, 4), (3, 2, 3)):
        D = random_hsd(rng, nvars, length, field, max_degree=3, max_terms=3)
        source, smaller = QuotientBasis(nvars, order), QuotientBasis(nvars, order - 1)
        del calls[:]
        component_matrix(D, 1, order, source)
        assert len(calls) == len(source) - 1
        for i in range(min(length, order - 1) + 1):
            component_matrix(D, i, order, source)
        assert len(calls) == len(source) - 1
        component_matrix(D, 1, order - 1, smaller)
        assert len(calls) == len(source) - 1 + len(smaller) - 1


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
        cached = {id(image) for image in D._mono_cache.values()}
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
            assert image == flat_of(want), key


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
    memoized D_mu(f) is the reference loop's."""
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
                assert g == reference.compose_multi(family, mu, f), (f, mu)


def outcome(call):
    """The value and tag of call(), or the type and text of its refusal."""
    try:
        g = call()
    except HasseSchmidtError as exc:
        return type(exc), str(exc)
    return g, g.precision


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("kind", ["taylor", "random", "scaled"])
def test_composites_match_the_reference_loop(field, kind, rng):
    """``compose_multi``, one call of the memoized recursion, against the
    loop that applies every factor anew: value and tag on exact, tagged,
    tagged-zero and exact-zero inputs, for every mu with weights from -1
    to one past the members' lengths; the type and text of each refusal,
    on those weights, on a weight vector of the wrong length and on
    inputs (exact zeros among them) of another ambient ring."""
    other = GF(7) if field == QQ else QQ
    for n in (1, 2, 3):
        m = rng.randint(1, 3)
        family = family_for(kind, rng, n, m, field)
        fs = [random_series(rng, n, field), random_series(rng, n, field, precision=4),
              Series.zero(n, field)] + vanishing_inputs(n, field)
        fs += [Series.zero(n + 1, field), Series.variable(n + 1, field, 0), Series.zero(n, other)]
        mus = list(itertools.product(range(-1, m + 2), repeat=n)) + [(0,) * (n + 1), (1,) * (n - 1)]
        for f in fs:
            for mu in mus:
                got = outcome(lambda: compose_multi(family, mu, f))
                assert got == outcome(lambda: reference.compose_multi(family, mu, f)), (f, mu)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_the_shift_table_matches_the_reference_loop(field, rng):
    """``taylor_delta_table`` reads its whole box through one memo: every
    coefficient, in lexicographic order of alpha, is the reference loop's
    on the Taylor family, exact zeros included; a tagged input, zero or
    not, is refused with the same text."""
    for n in (1, 2, 3):
        for f in (random_series(rng, n, field, max_degree=4, max_terms=4), Series.zero(n, field)):
            alpha_max = tuple(rng.randint(0, 3) for _ in range(n))
            family = taylor_basis(n, max(1, *alpha_max), field)
            box = itertools.product(*(range(b + 1) for b in alpha_max))
            want = [(alpha, reference.compose_multi(family, alpha, f)) for alpha in box]
            assert list(taylor_delta_table(f, alpha_max).items()) == want
        for f in (random_series(rng, n, field, precision=3), Series.zero(n, field, 2)):
            with pytest.raises(IncompatibleAmbient) as exc:
                taylor_delta_table(f, (1,) * n)
            assert str(exc.value) == "the shift table is only defined for exact polynomials"


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


def padded(ts, tlen):
    """ts with zero t-coefficients appended up to t^tlen."""
    zero = Series.zero(ts.nvars, ts.field, ts.precision)
    return TSeries(ts.coeffs + [zero] * (tlen - ts.tlen))


def xt_degree(key, nvars):
    """|beta| + k of the flat key of X^beta t^k, read off its exponents."""
    return sum(unpack(key, nvars + 1))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_flat_tseries_products_match_the_tuple_product(field, rng):
    """One ``_mac`` of two flat elements is ``reference.tseries_product``
    of the operands with room for every t-degree; the mask k <= L leaves
    the product in A[t]/(t^(L+1)); and one ``_mac`` under the bound N
    with the same mask is that product reduced modulo
    (X, t)^N + (t^(L+1)), for N one below, at and one above the largest
    |beta| + k of the product and none, over every field.  The
    boundaries are reached: terms at |beta| + k = N - 1 are kept and at N
    dropped, and terms at k = L + 1 are formed and masked, k = L kept."""
    reached = set()
    for nvars in (1, 2):
        for tlen in (1, 2, 3):
            for _ in range(5):
                a, b = (random_tseries(rng, nvars, tlen, field) for _ in range(2))
                assert a.flat == flat_of(a)
                assert TSeries._of(nvars, field, flat_of(a), tlen, None) == a
                acc = {}
                _mac(acc, flat_of(a), flat_of(b), None, (nvars + 1) * B, field.add, field.mul)
                acc = {e: c for e, c in acc.items() if c}
                assert acc == flat_of(reference.tseries_product(padded(a, 2 * tlen),
                                                                padded(b, 2 * tlen)))
                want = flat_of(reference.tseries_product(a, b))
                assert {e: c for e, c in acc.items() if e & _FIELD_MASK <= tlen} == want
                reached |= {(e & _FIELD_MASK) - tlen for e in acc} & {0, 1}
                top = max((xt_degree(e, nvars) for e in want), default=0)
                for N in (top - 1, top, top + 1, None):
                    got = {}
                    _mac(got, a.flat, b.flat, N, (nvars + 1) * B, field.add, field.mul)
                    got = {e: c for e, c in got.items() if c and e & _FIELD_MASK <= tlen}
                    assert got == (want if N is None else reduce_mod_J(want, N, nvars)), (a, b, N)
                    if N is not None:
                        assert all(xt_degree(e, nvars) < N for e in got)
                        reached |= {("N", xt_degree(e, nvars) - N) for e in want} & {
                            ("N", -1), ("N", 0)}
    assert reached == {0, 1, ("N", -1), ("N", 0)}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_flat_monomial_images_match_the_reference(field, rng):
    """Flat images of X^beta under E(X_j) = X_j + t + random terms, cut
    at N (``cut_images``) and not (``monomial_image``), against
    ``reference.monomial_image`` reduced modulo (X, t)^N + (t^(L+1));
    the powers of X_j + t reach t^L and would reach t^(L+1), and the
    orders N = |beta| and |beta| + 1 put the terms of E(X^beta) t^0 at
    |beta| + k = N and N - 1."""
    for nvars in (1, 2):
        for tlen in (1, 2, 3):
            images = [TSeries([Series.variable(nvars, field, j), Series.one(nvars, field)]
                              + [random_series(rng, nvars, field, max_degree=2, max_terms=2)
                                 for _ in range(tlen - 1)]) for j in range(nvars)]
            flats = [flat_of(img) for img in images]
            keys = [pack(e) for d in range(tlen + 3) for e in monomials_of_degree(nvars, d)]
            cut_sets = {N: cut_images(keys, flats, tlen, field, N) for N in range(tlen, tlen + 4)}
            for exps in (e for d in range(tlen, tlen + 3) for e in monomials_of_degree(nvars, d)):
                d = sum(exps)
                image = monomial_image(pack(exps), flats, tlen, field, {})
                assert image == flat_of(reference.monomial_image(exps, images, {}))
                assert all(e & _FIELD_MASK <= tlen and c for e, c in image.items())
                for N in (d, d + 1):
                    cuts = range(N, N - tlen - 1, -1)
                    cut = cut_sets[N][pack(exps)]
                    assert cut == flat_of(reference.monomial_image(exps, images, {}, cuts))
                    assert cut == reduce_mod_J(image, N, nvars)
                    # X^beta t^0 has |beta| + 0 = d: dropped at N = d, kept at d + 1
                    assert (pack(exps + (0,)) in cut) == (N > d)
            # (X_1 + t)^(L+1) without its t^(L+1) term, the binomials that
            # vanish in the field left out
            taylor = [flat_of(TSeries([Series.variable(nvars, field, j), Series.one(nvars, field)]))
                      for j in range(nvars)]
            zeros = (0,) * (nvars - 1)
            want = {pack((tlen + 1 - k,) + zeros + (k,)): field.coerce(math.comb(tlen + 1, k))
                    for k in range(tlen + 1)}
            image = monomial_image(pack((tlen + 1,) + zeros), taylor, tlen, field, {})
            assert image == {e: c for e, c in want.items() if c}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_image_sum_matches_the_tuple_substitution(field, rng):
    """Each one-slot read of sum_e c_e image(X^e) below a bound one
    below, at and one above the largest degree and none, and the
    all-slot read, against ``reference.substitute`` on exponent tuples;
    zero coefficients the sum may hold are dropped before comparing.  On
    inputs with finite tags, the one-slot reads that ``apply_component``
    makes and the all-slot read that ``apply`` splits are the reference
    truncated as the tags say."""
    for nvars in (1, 2, 3):
        for tlen in (1, 2):
            images = [random_tseries(rng, nvars, tlen, field) for _ in range(nvars)]
            flats = [flat_of(img) for img in images]
            for _ in range(4):
                f = random_series(rng, nvars, field, max_degree=4, max_terms=4)
                full = reference.substitute(f, images)
                got = image_sum(f.terms, field, flats, tlen, {})
                assert {e: c for e, c in got.items() if c} == flat_of(full), f
                deg = max(c.degree() for c in full.coeffs)
                for prec in (deg - 1, deg, deg + 1, None):
                    for s, coeff in enumerate(full.coeffs):
                        got = image_sum(f.terms, field, flats, tlen, {}, s, prec)
                        got = {e: c for e, c in got.items() if c}
                        assert got == packed(below(coeff, prec)), (f, s, prec)
            D = HSDerivation([TSeries([Series.variable(nvars, field, j)] + img.coeffs[1:])
                              for j, img in enumerate(images)])
            for P in (1, 2, 3, 5):
                f = random_series(rng, nvars, field, max_degree=4, max_terms=4, precision=P)
                exact = reference.substitute(Series(nvars, field, f.tuple_terms()), D.images)
                for s in range(tlen + 1):
                    got = image_sum(f.terms, field, D._flat_images, tlen, {}, s, max(P - s, 0))
                    want = exact.coeffs[s].truncate(max(P - s, 0))
                    assert Series._of(nvars, field, got, max(P - s, 0)) == want, (f, s)
                got = image_sum(f.terms, field, D._flat_images, tlen, {})
                prec = max(P - tlen, 0)
                assert TSeries._of(nvars, field, got, tlen, prec).coeffs == \
                    [c.truncate(prec) for c in exact.coeffs], f


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


@pytest.mark.parametrize("nvars", [1, 2])
def test_flat_products_stop_below_the_degree_limit(nvars):
    """On the flat keys of X^beta t^k the guard reads |beta| + k: a
    t-series product or a monomial image that forms X_1^(2^B - 1) t,
    where |beta| + k reaches DEGREE_LIMIT although |beta| stays below
    it, raises DegreeLimitExceeded; X_1^(2^B - 2) t, one below, does not.
    ``Series`` products keep the X-degree bound of the test above."""
    def power(e):
        return Series.monomial(nvars, QQ, [e] + [0] * (nvars - 1))

    top = DEGREE_LIMIT - 1
    x, zero, one = Series.variable(nvars, QQ, 0), Series.zero(nvars, QQ), Series.one(nvars, QQ)
    t = TSeries([zero, one])
    below, at = power(top - 1), power(top)
    assert TSeries([below, zero]) * t == TSeries([zero, below])
    D = integrate([below] + [zero] * (nvars - 1), 1)
    assert D.apply_component(1, x) == below
    assert D.apply(x) == substitute(x, D.images) == TSeries([x, below])
    with pytest.raises(DegreeLimitExceeded):
        TSeries([at, zero]) * t
    D = integrate([at] + [zero] * (nvars - 1), 1)
    for evaluate in (lambda: D.apply_component(1, x), lambda: D.apply(x),
                     lambda: substitute(x, D.images)):
        with pytest.raises(DegreeLimitExceeded):
            evaluate()
    assert (at * one).degree() == top


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
    degree <= 3, at most 6 d0, stay below it.  The guard on a flat key of
    X^beta t^k reads |beta| + k, and a flat product forms t-degrees up to
    2m before the mask drops those past m: 2m more at most."""
    assert monomials_below(MONOMIAL_CAP + 1, 1, MONOMIAL_CAP) > MONOMIAL_CAP
    d0 = NVARS_CAP * EXPONENT_CAP
    m = MONOMIAL_CAP - 1
    worst = m * d0 + 1 + m * (d0 - 1)
    assert max(NVARS_CAP * d0, 6 * d0) < worst
    assert worst + 2 * m < DEGREE_LIMIT
