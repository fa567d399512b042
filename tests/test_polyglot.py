"""Tests for properties-file parsing and label application."""

import random

import pytest

from ontoforge.evaluator import eval_text
from ontoforge.polyglot import (
    DuplicateKey,
    MalformedLine,
    apply_labels,
    emit_skeleton,
    parse_properties,
    render_properties,
)
from ontoforge.model import AnnotationAssertion, AnnotationValue, IRI, RDFS_LABEL
from support import pizza_env


def small_env():
    return eval_text(
        """
        (defontology menu :iri "https://example.org/menu#" :prefix "menu")
        (defclass Pizza)
        (defclass Margherita :subclass Pizza :label "Margherita")
        (defclass Calzone :subclass Pizza)
        (defoproperty hasTopping)
        """,
        "menu",
    )


# --- parsing ------------------------------------------------------------------


def test_parse_properties_basic_pairs_in_order():
    table = parse_properties("a=Apple\nb=Banana\nc=Cherry\n")
    assert table == {"a": "Apple", "b": "Banana", "c": "Cherry"}
    assert list(table) == ["a", "b", "c"]


def test_parse_properties_trims_keys_but_only_lstrips_values():
    table = parse_properties("  spaced key  =  padded value  \n")
    assert table == {"spaced key": "padded value  "}


def test_parse_properties_comments_and_blanks():
    text = "# comment\n! also comment\n\n   \na=1\n"
    assert parse_properties(text) == {"a": "1"}
    # comment markers only count in column one
    assert parse_properties("a=x # not a comment\n") == {"a": "x # not a comment"}


def test_parse_properties_escapes():
    table = parse_properties("tab\\tkey=va\\\\lue\\nmore\nx\\=y=z\n")
    assert table == {"tab\tkey": "va\\lue\nmore", "x=y": "z"}


def test_parse_properties_escaped_equals_does_not_split():
    table = parse_properties("a\\=b=c=d\n")
    # first unescaped '=' splits; later ones belong to the value
    assert table == {"a=b": "c=d"}


def test_parse_properties_duplicate_keys_cite_both_lines():
    with pytest.raises(DuplicateKey) as err:
        parse_properties("a=1\nb=2\na=3\n", file="x.properties")
    assert "key 'a' on lines 1 and 3" in str(err.value)
    assert err.value.location.line == 3


def test_parse_properties_malformed_lines():
    with pytest.raises(MalformedLine):
        parse_properties("no separator here\n")
    with pytest.raises(MalformedLine):
        parse_properties("=value without key\n")
    with pytest.raises(MalformedLine):
        parse_properties("bad\\qescape=x\n")
    with pytest.raises(MalformedLine):
        parse_properties("dangling=\\\n")


@pytest.mark.parametrize(
    "line, message",
    [
        # the key holds the whole line when no '=' splits it, and its escapes
        # are read before the missing '=' is reported
        ("ab\\qcd", "unknown escape '\\q'"),
        ("key\\", "dangling escape at end of line"),
        ("key=value\\", "dangling escape at end of line"),
    ],
    ids=["unknown-escape-before-missing-eq", "lone-backslash-ends-key",
         "lone-backslash-ends-value"],
)
def test_parse_properties_errors_name_the_first_fault_of_the_line(line, message):
    with pytest.raises(MalformedLine) as err:
        parse_properties(f"ok=1\n{line}\n", file="w.properties")
    assert err.value.message == message
    assert str(err.value.location) == "w.properties:2:1"


def test_parse_properties_an_escaped_eq_in_a_key_does_not_split_it():
    assert parse_properties("a\\=b\\\\\\=c=d\n") == {"a=b\\=c": "d"}
    # an escaped backslash before '=' does not escape it
    assert parse_properties("a\\\\=b\n") == {"a\\": "b"}


def test_parse_properties_error_carries_line_number():
    with pytest.raises(MalformedLine) as err:
        parse_properties("a=1\nbroken line\n", file="y.properties")
    assert err.value.location.line == 2


def test_parse_properties_breaks_lines_only_at_cr_and_lf():
    # As in Java properties files: a form feed, U+0085, U+2028 or U+2029
    # belongs to its line.
    text = "Pizza=La\u2028Pizza\nCalzone=Il\fCalzone\r\nA=x\x85y\u2029\rbroken"
    with pytest.raises(MalformedLine) as err:
        parse_properties(text, file="z.properties")
    assert err.value.location.line == 4
    table = parse_properties(text.rsplit("\r", 1)[0])
    assert table == {"Pizza": "La\u2028Pizza", "Calzone": "Il\fCalzone", "A": "x\x85y\u2029"}


def test_render_then_parse_round_trips():
    rng = random.Random(11)
    chars = "abz =\\\n\té"
    for _ in range(100):
        table = {}
        for i in range(rng.randint(1, 6)):
            key = f"k{i}_" + "".join(rng.choice("abz") for _ in range(3))
            value = "".join(rng.choice(chars) for _ in range(rng.randint(0, 8)))
            table[key] = value.lstrip()
        assert parse_properties(render_properties(table)) == table


def test_render_then_parse_round_trips_values_that_start_with_blanks_or_hold_a_cr():
    # a value's leading blanks, tabs and form feeds would be skipped unescaped,
    # and a raw \r would end its line; Java's Properties.store writes "\\ "
    rng = random.Random(12)
    chars = "ab =\\\n\r\t\f\u00a0"
    tables = [{"A": " Ay", "B": "x\ry", "C": "\f\t x", "D": "  ", "E": "\\ ", "F": "\u00a0a"}]
    for _ in range(200):
        tables.append({
            f"k{i}": "".join(rng.choice(chars) for _ in range(rng.randint(0, 8)))
            for i in range(rng.randint(1, 6))
        })
    for table in tables:
        assert parse_properties(render_properties(table)) == table, table
    assert render_properties(tables[0]) == (
        "A=\\ Ay\nB=x\\ry\nC=\\f\\t x\nD=\\  \nE=\\\\ \nF=\u00a0a\n"
    )


def test_render_then_parse_round_trips_keys_with_blanks_at_either_end():
    # unescaped, a blank around a key is trimmed; Java keeps an escaped one,
    # and its Properties.store escapes every blank of a key
    rng = random.Random(13)
    chars = "ab =\\\t\f\u00a0"
    tables = [{" a": "x", "b ": "y", " ": "z", "  c  ": "w", "d\\ ": "v"}]
    for _ in range(200):
        keys = ["".join(rng.choice(chars) for _ in range(rng.randint(1, 8)))
                for _ in range(rng.randint(1, 6))]
        tables.append(dict.fromkeys(keys, "v"))
    for table in tables:
        assert parse_properties(render_properties(table)) == table, table
    assert render_properties(tables[0]) == (
        "\\ a=x\nb\\ =y\n\\ =z\n\\ \\ c\\ \\ =w\nd\\\\\\ =v\n"
    )
    assert parse_properties(" \\ k\\  \t= v\n") == {" k ": "v"}


def test_a_value_loses_only_the_blanks_it_starts_with_before_its_escapes_are_read():
    assert parse_properties("a= \t\f x \nb=\\ y\nc=\\t z\nd=\u00a0w\n") == {
        "a": "x ", "b": " y", "c": "\t z", "d": "\u00a0w"
    }


# --- applying labels -------------------------------------------------------------


def test_apply_labels_adds_assertions_for_bound_classes():
    env = small_env()
    report = apply_labels(env, {"Pizza": "Pizza Base", "Margherita": "La Margherita"}, "it")
    assert report.added == 2
    assert report.missing == ("Calzone",)
    assert report.unknown == ()
    assert AnnotationAssertion(
        IRI("https://example.org/menu#Pizza"), RDFS_LABEL, AnnotationValue("Pizza Base", "it")
    ) in env.ontology
    # properties never appear in the class table
    assert "hasTopping" not in {*report.missing, *report.unknown}


def test_apply_labels_keeps_unicode_line_separators_verbatim():
    env = small_env()
    table = parse_properties("Pizza=La\u2028Pizza\nCalzone=Il\fCalzone\n")
    assert apply_labels(env, table, "it").added == 2
    for name, text in (("Pizza", "La\u2028Pizza"), ("Calzone", "Il\fCalzone")):
        assert AnnotationAssertion(
            IRI(f"https://example.org/menu#{name}"), RDFS_LABEL, AnnotationValue(text, "it")
        ) in env.ontology


def test_apply_labels_counts_only_new_assertions():
    env = small_env()
    table = {"Pizza": "La Pizza", "Margherita": "La Margherita", "Calzone": "Il Calzone"}
    first = apply_labels(env, table, "it")
    assert first.added == 3
    assert first.missing == ()
    second = apply_labels(env, table, "it")
    assert second.added == 0
    assert second.missing == ()


def test_apply_labels_empty_values_count_as_missing():
    env = small_env()
    report = apply_labels(env, {"Pizza": "", "Margherita": "La Margherita"}, "it")
    assert report.added == 1
    assert report.missing == ("Calzone", "Pizza")


def test_apply_labels_reports_unknown_keys_sorted():
    env = small_env()
    report = apply_labels(env, {"Zeppole": "z", "Arancini": "a", "Pizza": "p"}, "it")
    assert report.unknown == ("Arancini", "Zeppole")
    assert report.added == 1


def test_apply_labels_ignores_imported_and_qualified_names():
    env = pizza_env()
    own_class_count = sum(
        1
        for name, e in env.bindings.items()
        if "/" not in name
        and e.kind == "Class"
        and env.ontology.entities.get(e.iri.value) == e
    )
    report = apply_labels(env, {}, "it")
    assert len(report.missing) == own_class_count
    assert all("/" not in name for name in report.missing)


# --- skeletons ---------------------------------------------------------------------


def test_emit_skeleton_lists_every_class_sorted_with_header():
    env = small_env()
    text = emit_skeleton(env, "it")
    assert text == (
        "# label skeleton for namespace menu, lang it\n"
        "Calzone=\n"
        "Margherita=\n"
        "Pizza=\n"
    )


def test_emit_skeleton_prefills_existing_labels_for_that_lang():
    env = small_env()
    apply_labels(env, {"Calzone": "Il Calzone"}, "it")
    text = emit_skeleton(env, "it")
    assert "Calzone=Il Calzone\n" in text
    assert "Margherita=\n" in text  # the @en label must not leak into @it
    english = emit_skeleton(env, "en")
    assert "Margherita=Margherita\n" in english


def test_skeleton_fill_apply_close_the_loop():
    env = small_env()
    table = parse_properties(emit_skeleton(env, "pt"))
    filled = {k: v or f"{k} em portugues" for k, v in table.items()}
    report = apply_labels(env, filled, "pt")
    assert report.missing == ()
    assert report.unknown == ()
    assert report.added == len(table)
    again = apply_labels(env, filled, "pt")
    assert again.added == 0


def test_bundled_italian_labels_apply_cleanly():
    env = pizza_env()
    from support import BUNDLED

    table = parse_properties((BUNDLED / "pizzalabel_it.properties").read_text())
    report = apply_labels(env, table, "it")
    assert report.added == len(table) == 3
    assert report.unknown == ()


def test_emit_skeleton_folds_its_language_tag_as_labels_hold_it():
    env = small_env()
    upper = emit_skeleton(env, "EN")
    assert upper == emit_skeleton(env, "en")
    assert upper.startswith("# label skeleton for namespace menu, lang en\n")
    assert "Margherita=Margherita\n" in upper
