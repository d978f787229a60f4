"""Reading JSON documents: every kind through one field reader."""

from __future__ import annotations

import json

import pytest

from ltledge.analyzer import analyze, proof_from_doc, proof_to_doc
from ltledge.falsifier import cex_from_doc, cex_to_doc, falsify
from ltledge.patterns import Catalog
from ltledge.semantics import trace_from_doc
from ltledge.syntax import parse


def _read_premise(field_doc):
    doc = proof_to_doc(analyze(parse("F(up a & X b)")).proof)
    doc["premises"][0] = field_doc
    return proof_from_doc(doc)


def _read_entry(field_doc):
    return Catalog().load_user(json.dumps([field_doc]))


# kind: (reader of a document holding the fields, a good document, the
# start of every refusal)
KINDS = {
    "trace": (trace_from_doc,
              lambda: {"atoms": ["a"], "stem": [[0]], "loop": [[1]]},
              "trace document: "),
    "counterexample": (cex_from_doc,
                       lambda: cex_to_doc(falsify(parse("X a"))),
                       "counterexample document: "),
    "proof node": (_read_premise,
                   lambda: proof_to_doc(analyze(parse("F up a")).proof),
                   "proof document: premises[0]"),
    "catalog entry": (_read_entry,
                      lambda: {"id": "t", "metavariables": ["P"],
                               "body": "F p", "notes": ""},
                      "catalog entry "),
}
FIELDS = [  # kind, field, required
    ("trace", "atoms", True), ("trace", "stem", True),
    ("trace", "loop", True),
    ("counterexample", "formula", True), ("counterexample", "trace", True),
    ("counterexample", "stutter_index", True),
    ("counterexample", "value_before", True),
    ("counterexample", "value_after", True),
    ("proof node", "rule", True), ("proof node", "conclusion", True),
    ("proof node", "premises", True), ("proof node", "note", False),
    ("catalog entry", "id", True), ("catalog entry", "metavariables", True),
    ("catalog entry", "body", True), ("catalog entry", "notes", False),
]
BAD = {"wrong type": 0.5, "missing": None, "huge": [0] * 200_000}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("kind, field, required", FIELDS,
                         ids=[f"{k}-{f}" for k, f, _ in FIELDS])
def test_every_field_refuses_bad_input_in_one_short_line(kind, field,
                                                         required, bad):
    read, good, start = KINDS[kind]
    read(good())  # the good document reads
    doc = good()
    if bad == "missing":
        if not required:
            doc.pop(field, None)
            read(doc)
            return
        del doc[field]
    else:
        doc[field] = BAD[bad]
    with pytest.raises(ValueError) as info:
        read(doc)
    message = str(info.value)
    assert message.startswith(start) and field in message, message
    assert "\n" not in message and len(message) < 200, message


def _cex(**fields) -> dict:
    return {**cex_to_doc(falsify(parse("X a"))), **fields}


@pytest.mark.parametrize("read, doc, message", [
    (cex_from_doc, _cex(trace=5),
     "counterexample document: field 'trace': trace document: must be a JSON "
     "object, not int"),
    (cex_from_doc, _cex(formula="a &"),
     "counterexample document: field 'formula': unexpected end of input: "
     "expected a formula (at position 3)"),
    (cex_from_doc, _cex(trace={"atoms": ["a"], "stem": [[2]], "loop": [[1]]}),
     "counterexample document: field 'trace': trace document: field 'stem': "
     "values must be booleans or 0/1, not 2"),
    (cex_from_doc, {"formula": "X a"},
     "counterexample document: missing field 'trace'"),
    (_read_entry, 5, "catalog entry #0: must be a JSON object, not int"),
    (_read_premise, {"rule": "CUS-VAR", "conclusion": "F(", "premises": []},
     "proof document: premises[0]: field 'conclusion': unexpected end of "
     "input: expected a formula (at position 2)"),
], ids=["cex-trace-not-object", "cex-formula-text", "cex-trace-field",
        "cex-missing-field", "entry-not-object", "proof-conclusion-text"])
def test_a_refusal_names_the_document_kind_and_field(read, doc, message):
    with pytest.raises(ValueError) as info:
        read(doc)
    assert str(info.value) == message


def test_a_deep_proof_node_is_named_by_a_short_path():
    doc = node = proof_to_doc(analyze(parse("F up a")).proof)
    for _ in range(300):
        node["premises"] = [{**node, "premises": []}]
        node = node["premises"][0]
    node["note"] = 5
    with pytest.raises(ValueError) as info:
        proof_from_doc(doc)
    message = str(info.value)
    assert message.startswith("proof document: premises[0]: premises[")
    assert "..." in message and len(message) < 200
    assert message.endswith(" premises[0]: field 'note': must be a string, "
                            "not 5")
