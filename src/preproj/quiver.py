"""Finite quivers and composable paths.

Two quivers are built in: the double quiver of the Dynkin diagram E6
(vertices 0..5, arrows a0..a4 and their reversals b0..b4) and the
one-vertex quiver L2 with two loops x, y, whose path algebra is the free
algebra on two generators.

Composition is read left to right: ``p * q`` means "traverse p, then q".
Under this convention every defining relation of the E6 preprojective
algebra is a sum of loops at a single vertex, which the quotient layer
checks at load time.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple


class Arrow(NamedTuple):
    name: str
    source: int
    target: int

    def __str__(self):
        return f"{self.name}: {self.source} -> {self.target}"


class Quiver:
    """A finite directed multigraph with named arrows in a fixed order."""

    def __init__(self, name: str, vertices: Iterable[int], arrows: Iterable[Arrow]):
        self.name = name
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        vset = set(self.vertices)
        names = set()
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise ValueError(f"arrow {a} references an unknown vertex")
            if a.name in names:
                raise ValueError(f"duplicate arrow name {a.name!r}")
            names.add(a.name)
        self.arrow_index = {a.name: i for i, a in enumerate(self.arrows)}
        self.idempotent_index = {f"e{v}": v for v in self.vertices}
        self._out = {v: [] for v in self.vertices}
        self._into = {v: [] for v in self.vertices}
        for i, a in enumerate(self.arrows):
            self._out[a.source].append(i)
            self._into[a.target].append(i)

    def __repr__(self):
        return f"Quiver({self.name}, {len(self.vertices)} vertices, {len(self.arrows)} arrows)"

    def arrow(self, name: str) -> Arrow:
        try:
            return self.arrows[self.arrow_index[name]]
        except KeyError:
            raise KeyError(f"no arrow named {name!r} in quiver {self.name}") from None

    def arrows_into(self, v: int) -> list[int]:
        self._check_vertex(v)
        return self._into[v]

    def _check_vertex(self, v: int):
        if v not in self._out:
            raise KeyError(f"no vertex {v} in quiver {self.name}")

    def adjacency_listing(self) -> str:
        """Plain-text serialization, one arrow per line: ``name: source -> target``."""
        return "\n".join(str(a) for a in self.arrows)

    # -- paths ---------------------------------------------------------------

    def idempotent(self, v: int) -> "Path":
        self._check_vertex(v)
        return Path(self, (), v)

    def path(self, *names: str) -> "Path":
        """The path traversing the named arrows left to right."""
        idx = []
        for name in names:
            idx.append(self.arrow_index[name])
        p = Path(self, tuple(idx))
        return p

    def enumerate_paths(self, source: int, target: int, length: int) -> list["Path"]:
        """All paths of exactly the given length, in arrow-lexicographic order."""
        self._check_vertex(source)
        self._check_vertex(target)
        if length < 0:
            raise ValueError("length must be non-negative")
        if length == 0:
            return [self.idempotent(source)] if source == target else []
        results: list[Path] = []

        def extend(prefix: list[int], at: int):
            if len(prefix) == length:
                if at == target:
                    results.append(Path(self, tuple(prefix)))
                return
            for i in self._out[at]:
                prefix.append(i)
                extend(prefix, self.arrows[i].target)
                prefix.pop()

        extend([], source)
        return results


class Path:
    """A composable arrow sequence, or a stationary path at a vertex.

    ``arrows`` holds arrow indices into the owning quiver; a length-0 path
    is the idempotent at ``vertex``.

    The hash, hash((id(quiver), arrows, source)), is taken once by each
    constructor and kept in ``_hash``.  Sound because no code writes
    those fields after construction (a source test checks this) and
    ``arrows`` is a tuple; equal paths share all three, so hash equal.
    """

    __slots__ = ("quiver", "arrows", "source", "target", "_hash")

    def __init__(self, quiver: Quiver, arrows: tuple, vertex: int | None = None):
        self.quiver = quiver
        self.arrows = arrows
        if not arrows:
            if vertex is None:
                raise ValueError("a length-0 path needs a vertex")
            self.source = vertex
            self.target = vertex
        else:
            arr = quiver.arrows
            for k in range(len(arrows) - 1):
                if arr[arrows[k]].target != arr[arrows[k + 1]].source:
                    raise ValueError(
                        f"arrows {arr[arrows[k]].name} and {arr[arrows[k+1]].name} do not compose"
                    )
            self.source = arr[arrows[0]].source
            self.target = arr[arrows[-1]].target
        self._hash = hash((id(quiver), arrows, self.source))

    @classmethod
    def _unchecked(cls, quiver: Quiver, arrows: tuple, source: int, target: int) -> "Path":
        """A path of length >= 1 whose arrows the caller knows to compose.

        Skips the pairwise check of ``__init__``; callers pass a
        concatenation of checked paths or an arrow prepended to a checked
        path at its source, with the endpoints that follow from it.
        """
        path = object.__new__(cls)
        path.quiver = quiver
        path.arrows = arrows
        path.source = source
        path.target = target
        path._hash = hash((id(quiver), arrows, source))
        return path

    def __len__(self):
        return len(self.arrows)

    @property
    def key(self) -> tuple:
        """Canonical sort key: by length, then arrow-lexicographic."""
        return (len(self.arrows), self.arrows, self.source)

    def __eq__(self, other):
        return (
            isinstance(other, Path)
            and self.quiver is other.quiver
            and self.arrows == other.arrows
            and self.source == other.source
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.key < other.key

    def __mul__(self, other):
        """Concatenation when composable, otherwise None."""
        if not isinstance(other, Path):
            return NotImplemented
        return compose(self, other)

    def __str__(self):
        if not self.arrows:
            return f"e{self.source}"
        return "*".join(self.quiver.arrows[i].name for i in self.arrows)

    def __repr__(self):
        return f"Path({self})"


def compose(p: Path, q: Path) -> Path | None:
    """The concatenation "p then q", or None when endpoints do not match.

    Non-composability is a value, not an error; the path algebra consumes
    it as zero.
    """
    if p.quiver is not q.quiver:
        raise ValueError("paths live on different quivers")
    if p.target != q.source:
        return None
    if not p.arrows:
        return q
    if not q.arrows:
        return p
    return Path._unchecked(p.quiver, p.arrows + q.arrows, p.source, q.target)


# E6 with the branch vertex 3: arms 3-0, 3-2-1 and 3-4-5
E6_EDGES = ((0, 3), (1, 2), (2, 3), (3, 4), (4, 5))


@lru_cache(maxsize=None)
def double_quiver(name: str, n: int, edges: tuple[tuple[int, int], ...]) -> Quiver:
    """The double quiver of a graph on the vertices 0..n-1.

    Edge i ``(u, v)`` becomes arrows ``a<i>: u -> v`` and ``b<i>: v -> u``.
    ``edges`` is a tuple, so that the call is memoised: the same arguments
    give the same quiver object, whose paths compose.
    """
    arrows = []
    for i, (u, v) in enumerate(edges):
        arrows += [Arrow(f"a{i}", u, v), Arrow(f"b{i}", v, u)]
    return Quiver(name, range(n), arrows)


_L2 = Quiver("L2", [0], [Arrow("x", 0, 0), Arrow("y", 0, 0)])


def builtin_quiver(which: str) -> Quiver:
    """The built-in quivers: ``E6`` (double quiver of E6) or ``L2`` (two loops)."""
    key = which.upper()
    if key == "E6":
        return double_quiver("E6", 6, E6_EDGES)
    if key == "L2":
        return _L2
    raise KeyError(f"unknown builtin quiver {which!r} (expected E6 or L2)")
