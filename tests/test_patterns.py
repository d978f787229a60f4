"""The built-in Existence catalog plus user templates and instantiation."""

from __future__ import annotations

import json

import pytest

from ltledge.analyzer import Closed
from ltledge.patterns import (
    Catalog,
    PatternTemplate,
    catalog,
    check_catalog,
    instantiate,
    template_to_doc,
)
from ltledge.syntax import parse, render

ROBOT = "G(up mgn & F down mgn -> X(!down mgn U scl) & !down mgn)"


def test_builtin_catalog_has_twenty_entries():
    ids = catalog().ids()
    assert len(ids) == 20
    assert ids[0] == "existence/A/0"
    assert ids[-1] == "existence/E/3"
    scopes = {c.split("/")[1] for c in ids}
    assert scopes == {"A", "B", "C", "D", "E"}
    for ident in ids:
        assert ident.split("/")[2] in {"0", "1", "2", "3"}


def test_template_fields_for_the_between_scope():
    t = catalog().get("existence/D/1")
    assert t.pattern == "existence"
    assert t.scope == "D-Between"
    assert t.combination == 1
    assert t.metavariables == ("P", "Q", "R")
    assert render(t.body) == "G(up q & F up r -> X(!up r U p) & !up r)"


@pytest.mark.parametrize("ident,body", [
    ("existence/A/0", "F p"),
    ("existence/A/2", "F up p"),
    ("existence/B/1", "F up r -> (!up r U p)"),
    ("existence/C/1", "F up q -> F(up q & X F p)"),
    ("existence/E/1", "G(up q -> X(!up r U p) & !up r)"),
])
def test_selected_bodies(ident, body):
    assert catalog().get(ident).body == parse(body)


def test_combination_notes_explain_the_oddities():
    assert "combination 0" in catalog().get("existence/A/1").notes
    assert "guard" in catalog().get("existence/E/1").notes


def test_unknown_id_is_an_error():
    with pytest.raises(ValueError):
        catalog().get("existence/Z/0")
    with pytest.raises(ValueError):
        catalog().get("absence/A/0")


def test_every_builtin_template_is_closed():
    report = check_catalog()
    assert report.all_closed
    assert len(report.entries) == 20
    for ident, verdict in report.entries:
        assert isinstance(verdict, Closed), ident


def test_instantiation_binds_metavariables_to_formulas():
    f, warnings = instantiate(
        "existence/D/1",
        {"P": parse("scl"), "Q": parse("mgn"), "R": parse("!mgn")},
    )
    assert f == parse(ROBOT)
    assert warnings == ()


def test_instantiation_warns_on_open_bindings():
    f, warnings = instantiate("existence/A/0", {"P": parse("X b")})
    assert f == parse("F X b")
    assert warnings == ("binding P=X b is not provably closed under stuttering",)


def test_instantiation_requires_the_exact_binding_keys():
    with pytest.raises(ValueError, match="missing Q, R"):
        instantiate("existence/D/1", {"P": parse("p")})
    with pytest.raises(ValueError, match="unexpected Q"):
        instantiate("existence/A/0", {"P": parse("p"), "Q": parse("q")})


def test_user_templates_share_the_catalog_machinery():
    cat = Catalog()
    doc = json.dumps([
        {"id": "resp", "metavariables": ["P", "Q"],
         "body": "G(up p -> F q)", "notes": "user note"},
    ])
    assert cat.load_user(doc) == ("user/resp",)
    assert len(cat.ids()) == 21
    t = cat.get("user/resp")
    assert (t.pattern, t.scope, t.combination) == ("user", None, None)
    assert t.notes == "user note"
    f, warnings = cat.instantiate("user/resp", {"P": parse("a"), "Q": parse("b")})
    assert f == parse("G(up a -> F b)") and warnings == ()
    report = cat.check()
    assert len(report.entries) == 21 and report.all_closed


def test_user_catalog_rejects_bad_documents():
    cat = Catalog()
    with pytest.raises(ValueError, match="not valid JSON"):
        cat.load_user("{nope")
    with pytest.raises(ValueError, match="'bad'"):
        cat.load_user(json.dumps(
            [{"id": "bad", "metavariables": ["P"], "body": "up ("}]
        ))
    with pytest.raises(ValueError, match="missing field"):
        cat.load_user(json.dumps([{"id": "x", "body": "F p"}]))
    cat.load_user(json.dumps([{"id": "resp", "metavariables": ["P"], "body": "F p"}]))
    with pytest.raises(ValueError, match="duplicate"):
        cat.load_user(json.dumps(
            [{"id": "resp", "metavariables": ["P"], "body": "F p"}]
        ))


@pytest.mark.parametrize("entry,message", [
    ({"id": 5, "metavariables": ["P"], "body": "F p"},
     "entry #0: field 'id' must be a string"),
    ({"id": "t", "metavariables": 5, "body": "F p"},
     "entry 't': field 'metavariables' must be a list of strings"),
    ({"id": "t", "metavariables": "PQ", "body": "F p"},
     "entry 't': field 'metavariables' must be a list of strings"),
    ({"id": "t", "metavariables": ["P", 1], "body": "F p"},
     "entry 't': field 'metavariables' must be a list of strings"),
    ({"id": "t", "metavariables": ["P"], "body": 5},
     "entry 't': field 'body' must be a string"),
    ({"id": "t", "metavariables": ["P"], "body": "F p", "notes": None},
     "entry 't': field 'notes' must be a string"),
    ({"id": "t", "metavariables": ["p"], "body": "F p"},
     "entry 't': metavariable 'p' must be a single uppercase letter"),
], ids=["id-number", "metavariables-number", "metavariables-string",
        "metavariables-mixed", "body-number", "notes-null",
        "metavariable-lowercase"])
def test_user_catalog_checks_field_types(entry, message):
    cat = Catalog()
    with pytest.raises(ValueError, match=f"^{message}$"):
        cat.load_user(json.dumps([entry]))
    assert len(cat.ids()) == 20


@pytest.mark.parametrize("mvs,body,message", [
    (["p"], "F p", "metavariable 'p' must be"),
    (["P"], "F q", "template 'user/x+[.]{3}x+': body atoms"),
], ids=["metavariable", "body-atoms"])
def test_user_catalog_messages_are_bounded(mvs, body, message):
    # A huge id is shown shortened wherever a message names its entry.
    cat = Catalog()
    entry = {"id": "x" * 300_000, "metavariables": mvs, "body": body}
    with pytest.raises(ValueError,
                       match=f"^entry 'x+[.]{{3}}x+': {message}") as info:
        cat.load_user(json.dumps([entry]))
    assert len(str(info.value)) < 200
    ok = json.dumps([{**entry, "metavariables": ["P"], "body": "F p"}])
    cat.load_user(ok)
    with pytest.raises(ValueError, match="^duplicate pattern id") as info:
        cat.load_user(ok)
    assert len(str(info.value)) < 200


def test_rejected_user_document_loads_nothing():
    cat = Catalog()
    loaded = {"id": "c", "metavariables": ["P"], "body": "F p"}
    cat.load_user(json.dumps([loaded]))
    before = cat.ids()
    ok = {"id": "a", "metavariables": ["P"], "body": "F p"}
    bad_body = {"id": "b", "metavariables": ["P"], "body": "up ("}
    for doc in ([ok, ok], [ok, bad_body], [ok, loaded]):
        with pytest.raises(ValueError):
            cat.load_user(json.dumps(doc))
        assert cat.ids() == before
    with pytest.raises(ValueError, match="duplicate pattern id 'user/a'"):
        cat.load_user(json.dumps([ok, ok]))
    assert cat.load_user(json.dumps([ok])) == ("user/a",)


def test_template_validation():
    with pytest.raises(ValueError, match="uppercase"):
        PatternTemplate("x", "user", None, None, ("p",), parse("F p"))
    with pytest.raises(ValueError, match="not metavariables"):
        PatternTemplate("x", "user", None, None, ("P",), parse("F q"))


def test_template_document_shape():
    assert template_to_doc(catalog().get("existence/D/1")) == {
        "id": "existence/D/1",
        "metavariables": ["P", "Q", "R"],
        "body": "G(up q & F up r -> X(!up r U p) & !up r)",
        "notes": "",
    }


def test_singleton_catalog_is_not_mutated_by_user_loads():
    cat = Catalog()
    cat.load_user(json.dumps([{"id": "t", "metavariables": ["P"], "body": "F p"}]))
    assert len(catalog().ids()) == 20


def test_shared_catalog_refuses_user_templates():
    doc = json.dumps([{"id": "t", "metavariables": ["P"], "body": "F p"}])
    with pytest.raises(ValueError, match=r"Catalog\(\)"):
        catalog().load_user(doc)
    report = check_catalog()
    assert len(report.entries) == 20 and report.all_closed
