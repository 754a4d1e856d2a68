"""One stored form for t-series: a TSeries holds its flat dict, X^beta t^k
keyed by pack(beta + (k,)), and ``coeffs`` is a view split off it.  The
split is checked against ``reference.split_flat``, the one the library
made while a TSeries was stored as its list of t-coefficients; the
values against the tuple-keyed products and substitution of
``reference``."""

import pytest

from hasseschmidt import GF, QQ, Series, TSeries, integrate, substitute
from hasseschmidt import serialize
from hasseschmidt.derivations import taylor_derivation
from hasseschmidt.series import pack

import reference
from conftest import FIELDS, as_json, random_hsd, random_series

TAGS = (None, 1, 3)


def flat_of(coeffs):
    """The flat dict of a list of t-coefficients, from their exponent tuples."""
    return {pack(e + (k,)): c for k, s in enumerate(coeffs) for e, c in s.tuple_terms().items()}


def random_coeffs(rng, nvars, tlen, field, tag):
    return [random_series(rng, nvars, field, max_degree=4, max_terms=4, precision=tag)
            for _ in range(tlen + 1)]


def assert_split(ts):
    """``ts.coeffs`` is the reference split of ``ts.flat``, and ``ts`` is
    what the public constructor builds from it."""
    want = reference.split_flat(ts.nvars, ts.field, ts.flat, ts.tlen, ts.precision)
    assert ts.coeffs == want
    assert TSeries(want) == ts


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_the_public_constructor_and_the_flat_constructor_agree(field, rng):
    """For nvars 0-3, tlen 0-3 and exact and finite tags: TSeries(coeffs)
    is ``_of`` on the reference flat dict, gives its input back as
    ``coeffs``, and ``_of`` drops zeros, t-degrees past tlen and terms at
    or above the tag as the reference split does."""
    for nvars in range(4):
        for tlen in range(4):
            for tag in TAGS:
                coeffs = random_coeffs(rng, nvars, tlen, field, tag)
                ts = TSeries(coeffs)
                assert ts == TSeries._of(nvars, field, flat_of(coeffs), tlen, tag)
                assert ts.coeffs == coeffs
                assert (ts.nvars, ts.field, ts.tlen, ts.precision) == (nvars, field, tlen, tag)
                assert_split(TSeries._of(nvars, field, flat_of(coeffs), tlen, tag))
                # zeros, a t-degree past tlen and terms at or above the tag
                noisy = flat_of(random_coeffs(rng, nvars, tlen + 1, field, None))
                noisy[pack((0,) * nvars + (0,))] = field.zero()
                cut = TSeries._of(nvars, field, noisy, tlen, tag)
                assert all(cut.flat.values())
                assert_split(cut)
                assert cut.coeffs == reference.split_flat(nvars, field, noisy, tlen, tag)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_products_images_and_substitutions_split_as_the_reference(field, rng):
    """``__mul__``, ``apply`` and ``substitute`` give results whose view is
    the reference split, with the values of ``reference``."""
    for nvars in range(4):
        for tlen in range(4):
            for tag in TAGS:
                a, b = (TSeries(random_coeffs(rng, nvars, tlen, field, tag)) for _ in range(2))
                product = a * b
                assert_split(product)
                assert product == reference.tseries_product(a, b)
                if not nvars:
                    continue
                images = [TSeries(random_coeffs(rng, nvars, tlen, field, None))
                          for _ in range(nvars)]
                f = random_series(rng, nvars, field, max_degree=3, max_terms=3, precision=tag)
                image = substitute(f, images)
                assert_split(image)
                assert image == reference.substitute(f, images)
                if tlen:
                    D = random_hsd(rng, nvars, tlen, field)
                    image = D.apply(f)
                    assert_split(image)
                    assert image == reference.substitute(f, D.images)


def test_equal_ints_in_another_field_length_or_tag_are_unequal():
    """The flat dicts agree, the ambient, t-length or tag does not."""
    def ts(field, tlen=1, tag=None):
        x, two = Series.variable(1, field, 0, tag), Series.constant(1, field, 2, tag)
        return TSeries([x, two] + [Series.zero(1, field, tag)] * (tlen - 1))

    base = ts(GF(5))
    for other in (ts(GF(3)), ts(GF(7)), ts(QQ), ts(GF(5), tlen=2), ts(GF(5), tag=3)):
        assert other.flat == base.flat
        assert other != base and base != other
    assert ts(GF(5)) == base


def loaded(field, D):
    return serialize.derivation_from_json(as_json(serialize.derivation_to_json(D)), field, name="D")


def test_a_tseries_multiplies_only_a_tseries():
    """``TSeries * Series`` and ``TSeries * 2`` are TypeErrors: the
    product is one flat ``_mac`` of two t-series and nothing else."""
    x = Series.variable(1, QQ, 0)
    ts = TSeries([x, Series.one(1, QQ)])
    for other in (x, 2):
        with pytest.raises(TypeError):
            ts * other
    assert ts * TSeries([Series.one(1, QQ), Series.zero(1, QQ)]) == ts


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_a_derivation_keeps_one_form_of_each_image(field, rng):
    """``_flat_images[j]`` is ``images[j].flat`` itself for built, loaded
    and truncated derivations."""
    for nvars, length in ((1, 3), (2, 2), (3, 3)):
        built = [random_hsd(rng, nvars, length, field), taylor_derivation(nvars, length, field, 0),
                 integrate([random_series(rng, nvars, field) for _ in range(nvars)], length)]
        for D in built + [loaded(field, D) for D in built]:
            for E in [D] + [D.truncated(w) for w in range(1, length)]:
                assert len(E._flat_images) == nvars
                assert all(E._flat_images[j] is E.images[j].flat for j in range(nvars))
                assert all(img.tlen == E.length for img in E.images)


def test_loading_a_derivation_builds_no_series(monkeypatch, rng):
    """The loader keys every t-coefficient straight into the flat dict: no
    Series is made until ``coeffs`` is read."""
    field = GF(5)
    D = random_hsd(rng, 2, 3, field)
    obj = as_json(serialize.derivation_to_json(D))

    def refuse(*args, **kwargs):
        raise AssertionError("a Series was built")

    with monkeypatch.context() as patch:
        patch.setattr(Series, "__init__", refuse)
        patch.setattr(Series, "_of", classmethod(refuse))
        E = serialize.derivation_from_json(obj, field)
    assert E == D
    assert [img.coeffs for img in E.images] == [img.coeffs for img in D.images]
