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


def test_bounds_reads_the_series_tail_from_the_link():
    # each link kind certifies its own series tail, so bounds.py holds no
    # tail kinds, no logistic pole and no string-tagged dispatch: its one
    # string comparison picks c1_ub's cover factor from the envelope mode
    tree = ast.parse((SRC / "bounds.py").read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.alias))}
    assert not {"_tail", "strip_sup_logistic"} & names
    pis = [
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr == "pi"
        and isinstance(n.value, ast.Name) and n.value.id == "math"
    ]
    assert not pis, f"math.pi at lines {pis}"
    compares = [
        ast.unparse(n) for n in ast.walk(tree)
        if isinstance(n, ast.Compare) and any(_is_str(o) for o in [n.left, *n.comparators])
    ]
    assert compares == ["envelope.mode == 'strip'"]
    strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
    assert not {"finite", "factorial", "logistic"} & strings


def test_every_link_kind_certifies_its_own_series_tail():
    from l0bounds.analytic import AnalyticFn

    kinds = AnalyticFn.__subclasses__()
    assert len(kinds) == 3
    for kind in kinds:
        assert "series_tail" in vars(kind), kind
        assert "tail" not in vars(kind), kind
    assert not hasattr(AnalyticFn, "tail")
