"""Per-kind behaviour lives on the kind's objects (links in ``analytic``,
families in ``expfam``, noise models in ``harness``) and kinds are built
from one constructor table each: no module picks behaviour by comparing a
``tag`` to a string or by testing it for membership."""

import ast
from pathlib import Path

import pytest

import l0bounds

SRC = Path(l0bounds.__file__).parent


def _is_tag(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "tag") or (
        isinstance(node, ast.Attribute) and node.attr == "tag"
    )


def _is_str(node) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return True
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_str(e) for e in node.elts)
    return False


def tag_comparisons(source: str) -> list:
    """Line numbers where a name or attribute called ``tag`` is compared with
    a string literal (or a collection literal holding one), or tested for
    membership in any container."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            member = any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
            if any(_is_tag(o) for o in operands) and (member or any(_is_str(o) for o in operands)):
                hits.append(node.lineno)
    return hits


def test_detector_sees_tag_comparisons():
    src = (
        'if f.tag == "exp":\n    pass\n'
        'ok = tag in ("a", "b")\n'
        'fine = f.tag\n'
        'bad = g.tag not in KNOWN\n'
        'label = {"link": f.tag}\n'
    )
    assert tag_comparisons(src) == [1, 3, 5]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_tag_dispatch(module):
    lines = tag_comparisons((SRC / module).read_text())
    assert not lines, f"{module} compares a tag with a string at lines {lines}"
