"""Closure-under-stuttering analysis: verdicts, proof trees, the checker."""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import pytest

from conftest import gen_formula
from ltledge.analyzer import (
    Closed,
    ProofTree,
    Rule,
    Unknown,
    analyze,
    check_proof,
    normalize,
    proof_from_doc,
    proof_to_doc,
    render_proof,
)
from ltledge.analyzer import _analyze, _proof_nodes
from ltledge.formula import Atom, Next, RiseEdge
from ltledge.patterns import catalog
from ltledge.syntax import parse, render

GOLDEN = Path(__file__).with_name("analyze_golden.json")
FALL_ANCHORS = json.loads(
    Path(__file__).with_name("fall_anchor_golden.json").read_text()
)["cases"]


def root_rule(text: str) -> Rule:
    verdict = analyze(parse(text))
    assert isinstance(verdict, Closed), text
    assert check_proof(verdict.proof)
    return verdict.proof.rule


def inner_rules(text: str) -> set[Rule]:
    verdict = analyze(parse(text))
    assert isinstance(verdict, Closed), text
    seen = set()
    stack = [verdict.proof]
    while stack:
        node = stack.pop()
        seen.add(node.rule)
        stack.extend(node.premises)
    return seen


def test_base_rules():
    assert root_rule("p") is Rule.VAR
    assert root_rule("true") is Rule.CONST
    assert root_rule("false") is Rule.CONST
    assert root_rule("!p") is Rule.NOT
    assert root_rule("p & q") is Rule.AND
    assert root_rule("p | q") is Rule.BINOP
    assert root_rule("p -> q") is Rule.BINOP
    assert root_rule("p <-> q") is Rule.BINOP
    assert root_rule("G p") is Rule.ALWAYS
    assert root_rule("F p") is Rule.EVENT
    assert root_rule("p U q") is Rule.UNTIL


def test_bare_next_and_edges_are_not_provable():
    for text in ("X p", "up p", "down p", "X p | q", "F(X a)"):
        verdict = analyze(parse(text))
        assert isinstance(verdict, Unknown), text
        assert verdict.blockers
    verdict = analyze(parse("X p"))
    assert verdict.blockers == (Next(Atom("p")),)
    verdict = analyze(parse("edge p"))
    assert [render(b) for b in verdict.blockers] == ["up p", "down p"]


def test_eventually_rise_schema():
    assert Rule.PROP_E in inner_rules("F(up a & X b & c)")
    assert root_rule("F(up a & X b)") is Rule.PROP_E
    # plain conjuncts only go to the side condition, next-parts to the target
    verdict = analyze(parse("F(up a & X b & c)"))
    prop_e = verdict.proof.premises[0]
    assert prop_e.rule is Rule.PROP_E
    assert prop_e.note == "A=a; B=b; C=c"


def test_always_rise_schema():
    assert root_rule("G(up a -> X b | c)") is Rule.PROP_A
    assert root_rule("G(up a -> X b)") is Rule.PROP_A


def test_until_rise_schema():
    rules = inner_rules("(!up a | X b | c) U (up d & X e & f)")
    assert Rule.PROP_U in rules


def test_fall_edges_go_through_dualization():
    verdict = analyze(parse("F(down a & X b)"))
    assert isinstance(verdict, Closed)
    assert verdict.proof.rule is Rule.EDGE_DUAL
    inner = verdict.proof.premises[0]
    assert inner.rule is Rule.PROP_E
    assert inner.conclusion == parse("F(up !a & X b)")
    assert check_proof(verdict.proof)


def test_rewrite_wrapper_keeps_the_original_conclusion():
    f = parse("G(p & q)")
    verdict = analyze(f)
    assert isinstance(verdict, Closed)
    assert verdict.proof.rule is Rule.LOGIC_REWRITE
    assert verdict.proof.conclusion == f


def test_check_proof_skips_the_fallback_when_normalize_matches(monkeypatch):
    # The premise of the LOGIC-REWRITE node of G(p & q) is its normalize
    # form, so checking it never needs the NNF/DNF fallback rewrite.
    def refuse(f):
        raise AssertionError("_fallback_rewrite called")

    verdict = analyze(parse("G(p & q)"))
    monkeypatch.setattr("ltledge.analyzer._fallback_rewrite", refuse)
    assert check_proof(verdict.proof)


def test_next_free_formula_under_always():
    # no rewriting needed: the body is next-free, so composition suffices
    assert root_rule("G((q & F r) -> (!p U (s | r)))") is Rule.ALWAYS


def test_thm_main_rule_fires_on_the_raw_shape():
    # the public entry point resugars !a & X a into a rise first, so the
    # dedicated rule only triggers when analysis skips normalization
    verdict = _analyze(parse("F(!a & X a & X b)"), {})
    assert isinstance(verdict, Closed)
    assert verdict.proof.rule is Rule.THM_MAIN
    public = analyze(parse("F(!a & X a & X b)"))
    assert isinstance(public, Closed)
    assert Rule.PROP_E in inner_rules("F(!a & X a & X b)")


def test_normalize_is_idempotent():
    rng = random.Random(31)
    for _ in range(100):
        f = gen_formula(rng, 4)
        nf = normalize(f)
        assert normalize(nf) == nf


def test_analyze_is_deterministic():
    f = parse("G(up q & F up r -> X(!up r U p) & !up r)")
    first = analyze(f)
    second = analyze(f)
    assert isinstance(first, Closed) and first.proof == second.proof


def test_proof_document_round_trip():
    verdict = analyze(parse("F(up a & X b & c)"))
    doc = proof_to_doc(verdict.proof)
    assert proof_from_doc(doc) == verdict.proof
    parsed = json.loads(render_proof(verdict.proof, format="structured"))
    assert parsed == doc


@pytest.mark.parametrize("field,value", [
    ("note", 5), ("note", None), ("premises", "ab"),
    ("conclusion", 5), ("conclusion", ["F a"]),
])
def test_proof_document_field_types_are_checked(field, value):
    for where in ("root", "premise"):
        doc = proof_to_doc(analyze(parse("F(up a & X b)")).proof)
        node = doc if where == "root" else doc["premises"][0]
        node[field] = value
        with pytest.raises(ValueError,
                           match=f"^malformed proof document: {field}"):
            proof_from_doc(doc)


@pytest.mark.parametrize("field,value", [
    ("note", [0] * 200_000), ("premises", "x" * 200_000),
    ("rule", "x" * 300_000),
], ids=["note", "premises", "rule"])
def test_proof_document_messages_are_bounded(field, value):
    doc = proof_to_doc(analyze(parse("F(up a & X b)")).proof)
    doc["premises"][0][field] = value
    pattern = f"^malformed proof document: {field}"
    with pytest.raises(ValueError, match=pattern) as info:
        proof_from_doc(doc)
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("where", ["root", "premise"])
@pytest.mark.parametrize("node, kind", [
    ([], "list"), (None, "NoneType"), ("F a", "str"),
])
def test_every_proof_node_must_be_an_object(where, node, kind):
    doc = proof_to_doc(analyze(parse("F(up a & X b)")).proof)
    if where == "root":
        doc = node
    else:
        doc["premises"][0] = node
    with pytest.raises(ValueError, match="^malformed proof document: proof "
                                         f"node must be a JSON object, not "
                                         f"{kind}$"):
        proof_from_doc(doc)


def test_render_proof_text_lists_premises_after_their_uses():
    verdict = analyze(parse("F(up a & X b)"))
    lines = render_proof(verdict.proof, format="text").splitlines()
    assert lines[-1].startswith("[PROP-E] F(up a & X b)")
    assert any(line.startswith("[CUS-VAR] a") for line in lines)


def test_check_proof_rejects_tampering():
    verdict = analyze(parse("F(up a & X b & c)"))
    good = verdict.proof
    assert check_proof(good)
    wrong_conclusion = dataclasses.replace(good, conclusion=parse("F(up a & X b)"))
    assert not check_proof(wrong_conclusion)
    wrong_rule = dataclasses.replace(good, rule=Rule.VAR)
    assert not check_proof(wrong_rule)
    inner = good.premises[0]
    dropped = dataclasses.replace(
        good, premises=(dataclasses.replace(inner, premises=inner.premises[:1]),)
    )
    assert not check_proof(dropped)
    forged = ProofTree(Rule.VAR, parse("X p"))
    assert not check_proof(forged)


def test_every_random_closed_verdict_passes_the_checker():
    rng = random.Random(37)
    closed = 0
    for _ in range(400):
        f = gen_formula(rng, 4)
        verdict = analyze(f)
        if isinstance(verdict, Closed):
            closed += 1
            assert verdict.proof.conclusion == f
            assert check_proof(verdict.proof), render(f)
        else:
            assert verdict.blockers
    assert closed > 50  # sanity: the generator produces plenty of closed formulas


def test_unknown_blockers_render_without_duplicates():
    verdict = analyze(parse("X p & X p & up q"))
    assert isinstance(verdict, Unknown)
    rendered = [render(b) for b in verdict.blockers]
    assert len(rendered) == len(set(rendered))


def _verdict_doc(verdict) -> dict:
    if isinstance(verdict, Closed):
        return {"proof": proof_to_doc(verdict.proof)}
    return {"blockers": [render(b) for b in verdict.blockers]}


def test_analyze_reproduces_the_golden_corpus():
    # Verdicts recorded before the prover and the checker were rebuilt
    # around one rule table; see the description fields of the file.
    doc = json.loads(GOLDEN.read_text())
    seen: set[str] = set()
    for case in doc["cases"]:
        f = parse(case["formula"])
        verdict = _analyze(f, {}) if case.get("raw") else analyze(f)
        want = {k: case[k] for k in ("proof", "blockers") if k in case}
        assert _verdict_doc(verdict) == want, case["formula"]
        stack = [want["proof"]] if "proof" in want else []
        while stack:
            node = stack.pop()
            seen.add(node["rule"])
            stack.extend(node["premises"])
    assert seen == {r.value for r in Rule}


def _collapse_edge_dual(p: ProofTree) -> ProofTree:
    """``p`` with its EDGE-DUAL node replaced by the schema node under it,
    concluding the fall-edge form the EDGE-DUAL node concluded."""
    if p.rule is Rule.EDGE_DUAL:
        return dataclasses.replace(p.premises[0], conclusion=p.conclusion)
    return dataclasses.replace(
        p, premises=tuple(_collapse_edge_dual(q) for q in p.premises)
    )


@pytest.mark.parametrize(
    "case", FALL_ANCHORS, ids=[case["formula"] for case in FALL_ANCHORS]
)
def test_fall_edge_anchors_prove_through_edge_dual(case):
    # One fall-edge anchor at each site the schema rules read one: the F
    # body, the G antecedent, the until left (negated) and right chains.
    verdict = analyze(parse(case["formula"]))
    assert _verdict_doc(verdict) == {"proof": case["proof"]}
    assert check_proof(verdict.proof)
    # A schema conclusion must be canonical: the fall edge is accepted
    # only behind the EDGE-DUAL node that reads it as a rise.
    collapsed = _collapse_edge_dual(verdict.proof)
    assert Rule.EDGE_DUAL not in {q.rule for q in _proof_nodes(collapsed)}
    assert not check_proof(collapsed)


def _relabelings(p: ProofTree):
    """Copies of ``p`` with exactly one node carrying a different rule."""
    for rule in Rule:
        if rule is not p.rule:
            yield dataclasses.replace(p, rule=rule)
    for i, q in enumerate(p.premises):
        for wrong in _relabelings(q):
            premises = p.premises[:i] + (wrong,) + p.premises[i + 1 :]
            yield dataclasses.replace(p, premises=premises)


def test_check_proof_rejects_every_wrong_rule_label():
    proofs = [
        analyze(catalog().get("existence/D/1").body).proof,
        analyze(parse("F(down a & X b)")).proof,
        _analyze(parse("F(!a & X a & X b)"), {}).proof,
        analyze(parse("G(p & q)")).proof,
        analyze(parse("F(p U q) | true")).proof,
    ]
    used: set[Rule] = set()
    for proof in proofs:
        assert check_proof(proof)
        stack = [proof]
        while stack:
            node = stack.pop()
            used.add(node.rule)
            stack.extend(node.premises)
        for wrong in _relabelings(proof):
            assert not check_proof(wrong)
    assert used == set(Rule)
