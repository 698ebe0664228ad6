"""Property-based tests for resource quantities."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.objects.quantity import Quantity, add_resource_lists, fits_within

millis = st.integers(min_value=-10 ** 15, max_value=10 ** 15)
quantities = millis.map(Quantity)

suffixes = st.sampled_from(["", "m", "k", "M", "G", "Ki", "Mi", "Gi"])
small_numbers = st.integers(min_value=0, max_value=10 ** 6)


@given(quantities)
def test_str_round_trip_preserves_value(q):
    assert Quantity.parse(str(q)) == q


@given(small_numbers, suffixes)
def test_parse_never_crashes_on_valid_input(number, suffix):
    q = Quantity.parse(f"{number}{suffix}")
    assert isinstance(q.milli, int)


@given(quantities, quantities)
def test_addition_commutative(a, b):
    assert a + b == b + a


@given(quantities, quantities, quantities)
def test_addition_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(quantities)
def test_add_zero_identity(q):
    assert q + Quantity.zero() == q


@given(quantities, quantities)
def test_subtraction_inverts_addition(a, b):
    assert (a + b) - b == a


@given(quantities, quantities)
def test_ordering_total(a, b):
    assert (a < b) or (a > b) or (a == b)


@given(quantities, quantities)
def test_ordering_consistent_with_milli(a, b):
    assert (a < b) == (a.milli < b.milli)


@given(st.dictionaries(st.sampled_from(["cpu", "memory", "pods"]),
                       quantities, max_size=3),
       st.dictionaries(st.sampled_from(["cpu", "memory", "pods"]),
                       quantities, max_size=3))
def test_add_resource_lists_contains_all_keys(a, b):
    total = add_resource_lists(a, b)
    assert set(total) == set(a) | set(b)
    for key in set(a) & set(b):
        assert total[key] == a[key] + b[key]


@given(st.dictionaries(st.sampled_from(["cpu", "memory"]),
                       millis.map(lambda m: Quantity(abs(m))), max_size=2))
@settings(max_examples=50)
def test_request_always_fits_within_itself(request):
    assert fits_within(request, request)


@given(st.dictionaries(st.sampled_from(["cpu", "memory"]),
                       millis.map(lambda m: Quantity(abs(m) + 1)),
                       min_size=1, max_size=2))
def test_request_never_fits_within_less(request):
    smaller = {name: q - Quantity(1) for name, q in request.items()}
    assert not fits_within(request, smaller)


@given(quantities)
def test_parse_of_a_quantity_is_the_quantity(q):
    assert Quantity.parse(q) is q


@given(quantities, quantities)
def test_operators_leave_operands_unchanged(a, b):
    before = (a.milli, b.milli)
    for result in (a + b, a - b, -a, a * 2):
        assert result is not a and result is not b
    a == b, a < b, a <= b, hash(a), str(a), bool(a)
    assert (a.milli, b.milli) == before


@given(quantities, quantities)
def test_equality_hash_and_order_agree(a, b):
    assert (a == b) == (a.milli == b.milli)
    if a == b:
        assert hash(a) == hash(b) and str(a) == str(b)
    assert (a < b) == (not a >= b) and (a > b) == (not a <= b)


@given(st.dictionaries(st.sampled_from(["cpu", "memory", "pods"]),
                       quantities, max_size=3),
       st.dictionaries(st.sampled_from(["cpu", "memory", "pods"]),
                       quantities, max_size=3))
def test_add_resource_lists_does_not_alias_its_inputs(a, b):
    """The sum may share Quantity instances with its inputs (they are
    values); editing the sum's slots must not show through."""
    image = ({k: v.milli for k, v in a.items()},
             {k: v.milli for k, v in b.items()})
    total = add_resource_lists(a, b)
    for name in list(total):
        total[name] = total[name] + Quantity(1)
    assert ({k: v.milli for k, v in a.items()},
            {k: v.milli for k, v in b.items()}) == image
