"""Tests for quivers, paths, and the two builtins."""

import pytest

from preproj.quiver import Arrow, Path, Quiver, builtin_quiver, compose

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
