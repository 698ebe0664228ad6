"""Unit tests for label and field selectors."""

from repro.objects.selectors import (
    LabelSelector,
    LabelSelectorRequirement,
    equality_hint,
    get_field,
    match_fields,
    match_label_dict,
    parse_selector,
)


class TestLabelSelector:
    def test_match_labels(self):
        selector = LabelSelector(match_labels={"app": "web"})
        assert selector.matches({"app": "web", "tier": "fe"})
        assert not selector.matches({"app": "db"})
        assert not selector.matches({})

    def test_empty_selector_matches_everything(self):
        assert LabelSelector().matches({"anything": "goes"})
        assert LabelSelector().matches({})

    def test_in_operator(self):
        selector = LabelSelector(match_expressions=[
            LabelSelectorRequirement(key="env", operator="In",
                                     values=["prod", "staging"])])
        assert selector.matches({"env": "prod"})
        assert not selector.matches({"env": "dev"})
        assert not selector.matches({})

    def test_not_in_operator(self):
        selector = LabelSelector(match_expressions=[
            LabelSelectorRequirement(key="env", operator="NotIn",
                                     values=["prod"])])
        assert selector.matches({"env": "dev"})
        assert selector.matches({})
        assert not selector.matches({"env": "prod"})

    def test_exists_operator(self):
        selector = LabelSelector(match_expressions=[
            LabelSelectorRequirement(key="gpu", operator="Exists")])
        assert selector.matches({"gpu": "nvidia"})
        assert not selector.matches({"cpu": "xeon"})

    def test_does_not_exist_operator(self):
        selector = LabelSelector(match_expressions=[
            LabelSelectorRequirement(key="gpu", operator="DoesNotExist")])
        assert selector.matches({})
        assert not selector.matches({"gpu": "nvidia"})

    def test_combined_terms_are_anded(self):
        selector = LabelSelector(
            match_labels={"app": "web"},
            match_expressions=[LabelSelectorRequirement(
                key="env", operator="In", values=["prod"])])
        assert selector.matches({"app": "web", "env": "prod"})
        assert not selector.matches({"app": "web", "env": "dev"})

    def test_serde_round_trip(self):
        selector = LabelSelector(
            match_labels={"a": "b"},
            match_expressions=[LabelSelectorRequirement(
                key="k", operator="In", values=["v"])])
        again = LabelSelector.from_dict(selector.to_dict())
        assert again == selector
        assert again.matches({"a": "b", "k": "v"})


class TestParseSelector:
    def test_equality_pairs(self):
        selector = parse_selector("app=web,tier=fe")
        assert selector.matches({"app": "web", "tier": "fe"})
        assert not selector.matches({"app": "web"})

    def test_not_equal(self):
        selector = parse_selector("env!=prod")
        assert selector.matches({"env": "dev"})
        assert not selector.matches({"env": "prod"})

    def test_exists_bare_key(self):
        selector = parse_selector("gpu")
        assert selector.matches({"gpu": ""})
        assert not selector.matches({})

    def test_empty_string(self):
        assert parse_selector("").matches({"x": "y"})

    def test_none(self):
        assert parse_selector(None).matches({})


class TestFieldSelectors:
    def test_get_field_nested(self):
        obj = {"spec": {"nodeName": "n1"}, "status": {"phase": "Running"}}
        assert get_field(obj, "spec.nodeName") == "n1"
        assert get_field(obj, "status.phase") == "Running"
        assert get_field(obj, "spec.missing") is None
        assert get_field(obj, "a.b.c") is None

    def test_match_fields(self):
        obj = {"spec": {"nodeName": "n1"}}
        assert match_fields({"spec.nodeName": "n1"}, obj)
        assert not match_fields({"spec.nodeName": "n2"}, obj)

    def test_match_fields_negation(self):
        obj = {"status": {"phase": "Running"}}
        assert match_fields({"status.phase!": "Failed"}, obj)
        assert not match_fields({"status.phase!": "Running"}, obj)

    def test_empty_field_selector_matches(self):
        assert match_fields({}, {"a": 1})
        assert match_fields(None, {"a": 1})

    def test_equality_hint_is_the_first_plain_equality(self):
        assert equality_hint({"spec.nodeName": "n1"}) == \
            ("spec.nodeName", "n1")
        assert equality_hint({"status.phase!": "Failed",
                              "spec.nodeName": None}) == \
            ("spec.nodeName", None)
        assert equality_hint({"a": "x", "b": "y"}) == ("a", "x")

    def test_no_equality_hint_without_an_indexable_equality(self):
        assert equality_hint(None) is None
        assert equality_hint({}) is None
        assert equality_hint({"status.phase!": "Failed"}) is None
        assert equality_hint({"spec.tolerations": ["unhashable"]}) is None

    def test_equality_hint_is_necessary_for_a_match(self):
        """Whatever matches the selector holds the hinted value."""
        selector = {"spec.nodeName": "n1", "status.phase!": "Failed"}
        path, value = equality_hint(selector)
        for node in ("n1", "n2", None):
            for phase in ("Running", "Failed"):
                obj = {"spec": {"nodeName": node},
                       "status": {"phase": phase}}
                if match_fields(selector, obj):
                    assert get_field(obj, path) == value


class TestMatchLabelDict:
    def test_match(self):
        assert match_label_dict({"app": "web"}, {"app": "web", "x": "y"})

    def test_no_match(self):
        assert not match_label_dict({"app": "web"}, {"app": "db"})

    def test_empty_selector_never_matches(self):
        # Service semantics: an empty selector selects nothing.
        assert not match_label_dict({}, {"app": "web"})

    def test_none_labels(self):
        assert not match_label_dict({"app": "web"}, None)
