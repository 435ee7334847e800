"""Tests for quivers, paths, and the two builtins."""

import ast
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

import preproj
from preproj.e6 import build_pe6, pe6_relations
from preproj.freealg import dynkin_preprojective
from preproj.quiver import E6_EDGES, Arrow, Path, Quiver, builtin_quiver, compose, double_quiver

E6_ARROWS = {
    "a0": (0, 3), "b0": (3, 0),
    "a1": (1, 2), "b1": (2, 1),
    "a2": (2, 3), "b2": (3, 2),
    "a3": (3, 4), "b3": (4, 3),
    "a4": (4, 5), "b4": (5, 4),
}


def test_builtin_e6_shape():
    q = builtin_quiver("E6")
    assert len(q.vertices) == 6
    assert len(q.arrows) == 10
    for name, (src, tgt) in E6_ARROWS.items():
        arrow = q.arrow(name)
        assert (arrow.source, arrow.target) == (src, tgt)


def test_builtin_e6_is_the_quiver_of_the_pe6_relations():
    """One memoised E6 double quiver: the builtin, the quiver of the
    Dynkin builder on E6's edges and the one that pe6 and its relations
    live on, so their paths compose."""
    q = builtin_quiver("E6")
    assert double_quiver("E6", 6, E6_EDGES) is q
    assert dynkin_preprojective("E6", 6, E6_EDGES)[0] is q
    assert build_pe6().quiver is q
    assert all(relation.quiver is q for relation in pe6_relations())


def test_builtin_l2_shape():
    q = builtin_quiver("L2")
    assert len(q.vertices) == 1
    assert [a.name for a in q.arrows] == ["x", "y"]
    assert all(a.source == a.target == 0 for a in q.arrows)


def test_builtin_unknown():
    with pytest.raises(KeyError):
        builtin_quiver("E8")


def test_compose_loop_at_2():
    q = builtin_quiver("E6")
    p = compose(q.path("a2"), q.path("b2"))
    assert p is not None
    assert (p.source, p.target, len(p)) == (2, 2, 2)


def test_compose_with_idempotent():
    q = builtin_quiver("E6")
    b0 = q.path("b0")
    assert compose(q.idempotent(3), b0) == b0
    assert compose(b0, q.idempotent(0)) == b0


def test_compose_mismatch_is_none():
    q = builtin_quiver("E6")
    assert compose(q.path("a1"), q.path("a0")) is None


def test_path_constructor_rejects_non_composable_arrows():
    q = builtin_quiver("E6")
    a0, a1, b0 = (q.arrow_index[name] for name in ("a0", "a1", "b0"))
    with pytest.raises(ValueError, match="do not compose"):
        Path(q, (a1, a0))
    with pytest.raises(ValueError, match="do not compose"):
        Path(q, (a0, b0, b0))
    with pytest.raises(ValueError, match="do not compose"):
        q.path("a0", "a1")


def test_compose_equals_the_checked_path():
    q = builtin_quiver("E6")
    p = compose(q.path("a2", "b2"), q.path("a2"))
    checked = Path(q, p.arrows)
    assert p == checked and hash(p) == hash(checked)
    assert (p.source, p.target) == (checked.source, checked.target) == (2, 3)


def test_compose_associative_where_defined():
    q = builtin_quiver("E6")
    p, r, s = q.path("a0"), q.path("b0"), q.path("a0")
    assert compose(compose(p, r), s) == compose(p, compose(r, s))


def test_enumerate_paths_loop_at_0_length_2():
    q = builtin_quiver("E6")
    paths = q.enumerate_paths(0, 0, 2)
    assert [str(p) for p in paths] == ["a0*b0"]


def test_enumerate_paths_l2_length_2_is_free_monoid():
    q = builtin_quiver("L2")
    paths = q.enumerate_paths(0, 0, 2)
    assert [str(p) for p in paths] == ["x*x", "x*y", "y*x", "y*y"]


def test_enumerate_paths_none():
    q = builtin_quiver("E6")
    assert q.enumerate_paths(0, 5, 1) == []


def test_enumerate_paths_unknown_vertex():
    q = builtin_quiver("E6")
    with pytest.raises(KeyError):
        q.enumerate_paths(0, 7, 1)


def path_count(quiver: Quiver, source: int, target: int, length: int) -> int:
    """Number of paths via adjacency-matrix powers (oracle for enumeration)."""
    n = len(quiver.vertices)
    pos = {v: i for i, v in enumerate(quiver.vertices)}
    adj = [[0] * n for _ in range(n)]
    for a in quiver.arrows:
        adj[pos[a.source]][pos[a.target]] += 1
    vec = [0] * n
    vec[pos[source]] = 1
    for _ in range(length):
        vec = [sum(vec[i] * adj[i][j] for i in range(n)) for j in range(n)]
    return vec[pos[target]]


@pytest.mark.parametrize("source,target,length", [
    (0, 0, 4), (0, 3, 3), (1, 5, 6), (2, 2, 5), (3, 4, 5), (5, 5, 6),
])
def test_enumeration_matches_adjacency_power(source, target, length):
    q = builtin_quiver("E6")
    assert len(q.enumerate_paths(source, target, length)) == path_count(
        q, source, target, length
    )


def test_path_ordering_is_length_then_lex():
    q = builtin_quiver("L2")
    paths = sorted(
        q.enumerate_paths(0, 0, 2) + q.enumerate_paths(0, 0, 1),
        key=lambda p: p.key,
    )
    assert [str(p) for p in paths] == ["x", "y", "x*x", "x*y", "y*x", "y*y"]


def test_invalid_quiver_rejected():
    with pytest.raises(ValueError):
        Quiver("bad", [0], [Arrow("a", 0, 1)])
    with pytest.raises(ValueError):
        Quiver("dup", [0], [Arrow("a", 0, 0), Arrow("a", 0, 0)])


def test_adjacency_listing_format():
    q = builtin_quiver("L2")
    assert q.adjacency_listing() == "x: 0 -> 0\ny: 0 -> 0"


# -- the hash is taken once, when a path is made -------------------------------------


@st.composite
def words(draw):
    """A quiver and a composable arrow-index word on it, by a random walk."""
    quiver = builtin_quiver(draw(st.sampled_from(["E6", "L2"])))
    at = draw(st.sampled_from(quiver.vertices))
    word = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        i = draw(st.sampled_from([i for i, a in enumerate(quiver.arrows) if a.source == at]))
        word.append(i)
        at = quiver.arrows[i].target
    return quiver, tuple(word), at


@settings(max_examples=300, deadline=None)
@given(words(), st.data())
def test_cached_hash_is_the_hash_of_quiver_arrows_and_source(word, data):
    quiver, arrows, end = word
    source = quiver.arrows[arrows[0]].source if arrows else end
    names = [quiver.arrows[i].name for i in arrows]
    made = [quiver.path(*names) if arrows else quiver.idempotent(end)]
    if arrows:
        made.append(Path._unchecked(quiver, arrows, source, end))
        cut = data.draw(st.integers(min_value=0, max_value=len(arrows)))
        head = quiver.path(*names[:cut]) if cut else quiver.idempotent(source)
        tail = quiver.path(*names[cut:]) if cut < len(arrows) else quiver.idempotent(end)
        made.append(compose(head, tail))
    expected = hash((id(quiver), arrows, source))
    for path in made:
        assert (path.arrows, path.source) == (arrows, source)
        assert path._hash == hash(path) == expected
        assert path == made[0] and {path: 1}[made[0]] == 1


# fields that the cached hash reads or that hold it
_HASHED_FIELDS = {"quiver", "arrows", "source", "_hash"}


def hashed_field_writes(tree) -> list[int]:
    """Line numbers where ``tree`` writes a field in ``_HASHED_FIELDS``
    outside a constructor.

    A write is an assignment, augmented assignment or ``del`` of
    ``<expr>.<field>``, or a ``setattr`` or ``object.__setattr__`` call
    naming the field.  Only a constructor may assign, and only to the
    object it makes: ``self`` in an ``__init__`` (every class sets its own
    fields there, ``Path`` among them), or in an ``_unchecked`` a name it
    binds to ``object.__new__(cls)``.
    """
    lines = set()

    def fresh_objects(function):
        if function.name == "__init__":
            return {"self"}
        if function.name != "_unchecked":
            return set()
        return {
            target.id
            for node in ast.walk(function)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "attr", None) == "__new__"
            for target in node.targets
            if isinstance(target, ast.Name)
        }

    def writes(node):
        """(owner, field, line, is an assignment) for each write in ``node``."""
        if isinstance(node, (ast.Assign, ast.Delete, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            for target in targets:
                for t in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if isinstance(t, ast.Attribute):
                        yield t.value, t.attr, t.lineno, isinstance(node, ast.Assign)
        elif (
            isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "setattr"
                 or getattr(node.func, "attr", None) == "__setattr__")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            yield node.args[0], node.args[1].value, node.lineno, True

    def visit(node, fresh):
        for child in ast.iter_child_nodes(node):
            for owner, field, line, assigns in writes(child):
                if field in _HASHED_FIELDS and not (
                    assigns and isinstance(owner, ast.Name) and owner.id in fresh
                ):
                    lines.add(line)
            is_function = isinstance(child, ast.FunctionDef)
            visit(child, fresh_objects(child) if is_function else fresh)

    visit(tree, set())
    return sorted(lines)


def test_no_code_changes_a_hashed_path_field_after_construction():
    """``Path`` keeps the hash it takes when it is made; that is sound only
    while its quiver, arrows and source are never written afterwards."""
    sources = sorted(pathlib.Path(preproj.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    for source in sources:
        tree = ast.parse(source.read_text(encoding="utf-8"))
        assert hashed_field_writes(tree) == [], source.name
    # not vacuous: every form of write is found, and both constructors
    # write the fields
    planted = ast.parse(
        "def f(p, q):\n"
        "    p.arrows = ()\n"
        "    q.source += 1\n"
        "    del p.quiver\n"
        "    setattr(p, 'source', 0)\n"
        "    object.__setattr__(q, '_hash', 0)\n"
        "    p.arrows, q.source = (), 0\n"
        "class C:\n"
        "    def move(self):\n"
        "        self.arrows = ()\n"
        "    def _unchecked(cls, path):\n"
        "        made = object.__new__(cls)\n"
        "        made.source = 0\n"
        "        path.source = 0\n"
        "    def __init__(self, path):\n"
        "        self.arrows = ()\n"
        "        path.arrows = ()\n"
    )
    assert hashed_field_writes(planted) == [2, 3, 4, 5, 6, 7, 10, 14, 17]
    quiver_tree = ast.parse(pathlib.Path(preproj.quiver.__file__).read_text(encoding="utf-8"))
    (path_class,) = [
        node for node in quiver_tree.body if isinstance(node, ast.ClassDef) and node.name == "Path"
    ]
    constructors = [
        method for method in path_class.body
        if isinstance(method, ast.FunctionDef) and method.name in ("__init__", "_unchecked")
    ]
    assert len(constructors) == 2
    for method in constructors:
        assigned = {
            target.attr
            for node in ast.walk(method)
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Attribute)
        }
        assert _HASHED_FIELDS <= assigned, method.name
