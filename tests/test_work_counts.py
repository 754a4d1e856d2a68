"""Work that tier-1 pins as counts, which are the same on every host
where a time bound is not: each test states its bound and its margin."""

import json
import sys
from pathlib import Path

import pytest

from hasseschmidt import HSDerivation, derivations, serialize
from hasseschmidt.cli import main
from hasseschmidt.fields import FieldSpec
from hasseschmidt.series import variable_key

ROOT = Path(__file__).resolve().parents[1]


def seed1_corpus(workload):
    """The files and ops of a benchmark workload at seed 1, from
    ``bench/corpus.py``, which is imported, not changed."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import corpus
    finally:
        sys.path.pop(0)
    return corpus.generate(workload, 1)


def test_decompose_reads_the_components_at_the_variables_off_the_images(
        tmp_path, monkeypatch, capsys):
    """Decomposing the largest seed-1 decompose-small problem (Q, three
    variables, length 4) evaluates D_i(X_j) sixty times and walks
    a monomial image for none of them: the bound is 0 ``image_sum`` calls
    at a variable, with no margin.  Every other input still walks."""
    files, ops = seed1_corpus("decompose-small")
    op = next(op for op in ops if op["file"] == "Q-n3-m4-00.json")
    path = tmp_path / op["file"]
    path.write_bytes(files[op["file"]])
    at_variables, walks_at_variables, walks = [], [], []
    apply_component, image_sum = HSDerivation.apply_component, derivations.image_sum

    def is_variable(terms, n):
        return len(terms) == 1 and list(terms.values()) == [1] and any(
            variable_key(n, j) in terms for j in range(n))

    def counted_component(self, i, f):
        if i and f.precision is None and is_variable(f.terms, f.nvars):
            at_variables.append(i)
        return apply_component(self, i, f)

    def counted_sum(terms, field, images, tlen, cache, slot=None, prec=None):
        walks.append(slot)
        if slot is not None and prec is None and is_variable(terms, len(images)):
            walks_at_variables.append(slot)
        return image_sum(terms, field, images, tlen, cache, slot, prec)

    monkeypatch.setattr(HSDerivation, "apply_component", counted_component)
    monkeypatch.setattr(derivations, "image_sum", counted_sum)
    assert main([op["cmd"], str(path)] + op["args"]) == 0
    capsys.readouterr()
    assert len(at_variables) >= 50 and walks
    assert walks_at_variables == []


def coefficient_texts(obj):
    """Every coefficient of a problem file's JSON, in file order."""
    entries = obj["derivations"] + ([obj["target"]] if "target" in obj else [])
    return [row[-1] for D in entries for image in D["images"] for series in image
            for row in series["terms"]]


def test_loading_parses_each_coefficient_text_once(monkeypatch):
    """Loading a seed-1 corpus file calls ``parse_scalar`` exactly once
    per distinct coefficient text (bound: the number of distinct texts,
    no margin), where reading each term alone called it once per term:
    over all three workloads that is 817 calls for 4,781 terms."""
    calls = []
    parse = FieldSpec.parse_scalar

    def counted(self, text):
        calls.append(text)
        return parse(self, text)

    monkeypatch.setattr(FieldSpec, "parse_scalar", counted)
    terms = distinct = 0
    for workload in ("decompose-small", "decompose-dense", "kernel-verify"):
        files, _ = seed1_corpus(workload)
        for text in files.values():
            obj = json.loads(text)
            texts = coefficient_texts(obj)
            assert all(type(t) is str for t in texts)
            calls.clear()
            serialize.problem_from_json(obj)
            assert sorted(calls) == sorted(set(texts))
            terms, distinct = terms + len(texts), distinct + len(calls)
    assert distinct * 5 < terms


@pytest.mark.parametrize("workload, op_id, muls", [
    ("decompose-dense", "F3-n4-m3-00:decompose --max-degree 4", 4223),
    ("kernel-verify", "Q-random-n2-N8:verify --trials 5", 2526),
])
def test_field_multiplications_of_one_op(tmp_path, monkeypatch, capsys, workload, op_id, muls):
    """Decomposing one seed-1 decompose-dense problem (GF(3), four
    variables, through the Laplace determinant) and one seed-1
    kernel-verify ``verify`` op (Q, a random family in two variables) call
    ``FieldSpec.mul`` exactly ``muls`` times: the bound has no margin,
    since a change to how the product kernel loops must leave the
    arithmetic as it is."""
    files, ops = seed1_corpus(workload)
    op = next(op for op in ops if op["id"] == op_id)
    path = tmp_path / op["file"]
    path.write_bytes(files[op["file"]])
    calls = []
    mul = FieldSpec.mul

    def counted(self, a, b):
        calls.append(self)
        return mul(self, a, b)

    monkeypatch.setattr(FieldSpec, "mul", counted)
    assert main([op["cmd"], str(path)] + op["args"]) == 0
    capsys.readouterr()
    assert len(calls) == muls
