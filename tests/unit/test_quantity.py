"""Unit tests for Kubernetes resource quantities."""

import pytest

from repro.objects import Pod, make_pod
from repro.objects.quantity import (
    InvalidQuantity,
    Quantity,
    add_resource_lists,
    fits_within,
)


class TestParsing:
    def test_plain_integer(self):
        assert Quantity.parse("2").milli == 2000

    def test_millicores(self):
        assert Quantity.parse("500m").milli == 500

    def test_fractional(self):
        assert Quantity.parse("1.5").milli == 1500

    def test_binary_suffixes(self):
        assert Quantity.parse("1Ki").milli == 1024 * 1000
        assert Quantity.parse("1Mi").milli == 1024 ** 2 * 1000
        assert Quantity.parse("2Gi").milli == 2 * 1024 ** 3 * 1000

    def test_decimal_suffixes(self):
        assert Quantity.parse("1k").milli == 1000 * 1000
        assert Quantity.parse("5M").milli == 5 * 10 ** 6 * 1000

    def test_negative(self):
        assert Quantity.parse("-2").milli == -2000

    def test_parse_from_number(self):
        assert Quantity.parse(2).milli == 2000
        assert Quantity.parse(0.25).milli == 250

    def test_parse_idempotent_on_quantity(self):
        q = Quantity.parse("100m")
        assert Quantity.parse(q) == q

    def test_parse_returns_a_quantity_itself(self):
        """A Quantity is a value, so parsing one allocates nothing."""
        q = Quantity.parse("100m")
        assert Quantity.parse(q) is q
        assert Quantity.from_serialized(q) is q

    @pytest.mark.parametrize("bad", ["", "abc", "1Qi", "--3", "1.2.3"])
    def test_invalid(self, bad):
        with pytest.raises(InvalidQuantity):
            Quantity.parse(bad)


class TestArithmetic:
    def test_add(self):
        assert (Quantity.parse("1") + Quantity.parse("500m")).milli == 1500

    def test_add_string(self):
        assert (Quantity.parse("1") + "250m").milli == 1250

    def test_sub(self):
        assert (Quantity.parse("2") - "500m") == Quantity.parse("1500m")

    def test_mul(self):
        assert (Quantity.parse("100m") * 3).milli == 300

    def test_neg(self):
        assert (-Quantity.parse("1")).milli == -1000

    def test_comparisons(self):
        assert Quantity.parse("1") < Quantity.parse("2")
        assert Quantity.parse("1000m") <= Quantity.parse("1")
        assert Quantity.parse("1Gi") > Quantity.parse("1Mi")
        assert Quantity.parse("3") >= "3"

    def test_equality_with_string(self):
        assert Quantity.parse("1") == "1000m"

    def test_hashable(self):
        assert len({Quantity.parse("1"), Quantity.parse("1000m")}) == 1

    def test_bool(self):
        assert not Quantity.zero()
        assert Quantity.parse("1m")


class TestFormatting:
    def test_whole_units(self):
        assert str(Quantity.parse("2")) == "2"

    def test_millis(self):
        assert str(Quantity.parse("250m")) == "250m"

    def test_binary_round_trip(self):
        assert str(Quantity.parse("2Gi")) == "2Gi"
        assert str(Quantity.parse("512Mi")) == "512Mi"

    def test_round_trip_preserves_value(self):
        for text in ["1", "500m", "3Gi", "128Mi", "7", "12k"]:
            q = Quantity.parse(text)
            assert Quantity.parse(str(q)) == q

    def test_serialized_form(self):
        assert Quantity.parse("1Gi").to_serialized() == "1Gi"
        assert Quantity.from_serialized("250m").milli == 250


class TestResourceLists:
    def test_add_resource_lists(self):
        total = add_resource_lists(
            {"cpu": Quantity.parse("1")},
            {"cpu": Quantity.parse("500m"), "memory": Quantity.parse("1Gi")},
        )
        assert total["cpu"] == Quantity.parse("1500m")
        assert total["memory"] == Quantity.parse("1Gi")

    def test_fits_within_true(self):
        assert fits_within({"cpu": Quantity.parse("1")},
                           {"cpu": Quantity.parse("2"),
                            "memory": Quantity.parse("1Gi")})

    def test_fits_within_false_exceeds(self):
        assert not fits_within({"cpu": Quantity.parse("3")},
                               {"cpu": Quantity.parse("2")})

    def test_fits_within_false_missing_resource(self):
        assert not fits_within({"gpu": Quantity.parse("1")},
                               {"cpu": Quantity.parse("2")})


class TestValueSemantics:
    """Instances may be shared (``parse`` returns its argument), so every
    operation must build a new object and leave its operands alone."""

    def test_arithmetic_never_mutates_operands(self):
        a, b = Quantity.parse("1"), Quantity.parse("250m")
        results = [a + b, a - b, a * 3, -a, a + "1", a - 1]
        assert (a.milli, b.milli) == (1000, 250)
        assert all(r is not a and r is not b for r in results)
        assert [r.milli for r in results] == [1250, 750, 3000, -1000,
                                              2000, 0]

    def test_equal_values_are_interchangeable(self):
        a, b = Quantity.parse("1Gi"), Quantity.parse("1024Mi")
        assert a is not b and a == b and hash(a) == hash(b)
        assert not a < b and a <= b and a >= b and not a > b
        assert str(a) == str(b) == "1Gi"
        assert len({a, b}) == 1

    def test_add_resource_lists_shares_but_never_changes_inputs(self):
        cpu, memory = Quantity.parse("1"), Quantity.parse("1Gi")
        a, b = {"cpu": cpu, "memory": memory}, {"cpu": Quantity.parse("2")}
        total = add_resource_lists(a, b)
        assert total is not a and total is not b
        assert total["memory"] is memory        # shared, not copied
        assert total["cpu"] is not cpu and total["cpu"].milli == 3000
        total["memory"] = total["memory"] + "1Gi"   # rebinding the slot
        total["cpu"] = total["cpu"] - 1
        assert (a["cpu"].milli, a["memory"], b["cpu"].milli) == \
            (1000, Quantity.parse("1Gi"), 2000)

    def test_equal_wire_strings_decode_to_one_instance(self):
        first = Quantity.from_serialized("250m")
        again = Quantity.from_serialized("".join(["250", "m"]))
        assert first is again
        assert Quantity.from_serialized("1Gi") is not first

    def test_interned_decode_leaves_values_unchanged(self):
        for text in ["1", "500m", "3Gi", "128Mi", "7", "12k", "1.5", "-2"]:
            decoded = Quantity.from_serialized(text)
            assert decoded.milli == Quantity.parse(text).milli
            assert str(decoded) == str(Quantity.parse(text))
        with pytest.raises(InvalidQuantity):
            Quantity.from_serialized("1Qi")

    def test_decoded_objects_share_their_quantities(self):
        wire = make_pod("p", cpu="250m", memory="64Mi").to_dict()
        first, second = Pod.from_dict(wire), Pod.from_dict(wire)
        requests = [pod.spec.containers[0].resources.requests
                    for pod in (first, second)]
        assert requests[0]["cpu"] is requests[1]["cpu"]
        assert requests[0]["memory"] is requests[1]["memory"]
        assert requests[0]["cpu"].milli == 250

    def test_milli_is_the_only_state(self):
        assert Quantity.__slots__ == ("milli",)
        with pytest.raises(AttributeError):
            Quantity(1).unit = "cpu"
