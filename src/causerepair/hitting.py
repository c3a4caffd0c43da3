"""Minimal support sets and hitting-set solvers.

The central reduction: the family of subset-minimal sub-instances that
make a boolean query true doubles as a hypergraph whose vertices are
facts.  Hitting sets of that hypergraph are exactly the deletion sets
that falsify the query, so minimal hitting sets encode repairs,
contingency sets, and diagnoses all at once.

A family is a plain tuple of frozensets, an antichain in canonical order
(``antichain``).  ``support_sets`` builds the one for a query;
``endogenous_part`` restricts it to the endogenous facts, where an edge
with no endogenous fact turns into the empty edge, which nothing hits.
That restriction (``endogenous_support_sets``) is the one conflict
family of causes, diagnoses and endogenous repairs.  Each entry point
builds its family once and hands it to the solvers by value.

Each entry point translates its family once into a mask table
(``_table``): the vertices in ``key`` order, and each edge an ``int``
with bit ``i`` set for vertex ``i`` (``int.bit_count`` needs Python
3.10).  Everything after that works on masks, never on facts, and the
order is fixed by ``key``, so every search, and its run time, is the
same in every process.

Every solver is one search, ``_search``, over the subset-minimal hitting
sets of a mask family (MMCS, Murakami and Uno).  It branches on the
unhit edge with the fewest vertices not yet ruled out, trying those on
the most edges first; it adds a vertex only while each chosen vertex
still hits some edge alone (a critical edge), so each set it reaches is
minimal; and it keeps each vertex out of its later siblings' subtrees,
so it reaches each set once.  A bound caps the set size and each set
found may lower it; a node is cut when its chosen vertices plus a greedy
packing of pairwise disjoint unhit edges, each needing a vertex of its
own, exceed the bound.  An empty edge has no vertex to branch on, so a
family holding one has no hitting set; no family need be an antichain.

A family's minimal hitting sets are the product of its connected
components' ones (``_components``), and so are the smallest of them, those
through a given vertex, or any other choice made per component
(``HittingSolution.kept``).  Enumeration visits only the sets each
component keeps, and the cap counts those: its search has no bound for
all of them, and the component's minimum (``_least``) for the smallest;
in the vertex's component it starts with the vertex chosen, bounded for
the smallest by the least set through it (``_forced``).  Each set keeps
its ascending vertex indexes.  Only ``indexes`` reads the product, and it
caps it first: a member is one set per component, written as the sorted join
of their index lists, and the members come in the order of those lists;
``sets`` maps each list onto the vertices.
Minima are read off a kernel (``_reduced``), valid for the minimum size
but not for enumeration, since it loses minimal sets: a one-vertex edge
takes its vertex and every edge through it goes (Abu-Khzam's unit-edge
rule), an edge that contains another goes, and a vertex goes when another
vertex lies on every edge it lies on (Weihe's two domination rules).  On
the chain query every ``R(x,y)`` goes and the family becomes a graph,
which most often reduces to nothing in two or three rounds; the rounds,
most of a minimum's time, loop over the masks' bits with no generator,
and each checks the taken vertices against the bound.  Only a kernel
with edges left is split into components and searched by branch and
bound, the bound lowered below every set found; the minimum is the taken
vertices plus the components' minima, and the taken vertices joined
with the sets found are one minimum hitting set (``_least``, whose size
is ``minimum_size``).

When an element ``t`` is forced, the relevant quantity is the minimum
size of an *irredundant* hitting set containing ``t`` (one in which some
edge is hit by ``t`` alone).  Plain "minimum hitting set containing t"
would overshoot on star-shaped families where every small hitting set
makes ``t`` redundant, and irredundance is what deletion semantics needs:
a deletion set whose every member matters.  Only ``t``'s own component
changes: choose a witness edge for ``t``, forbid that edge's other
vertices, and take the plain minimum of the component's ``t``-free
edges (its forced rest); the witness edges share one bound.  A least
forced rest joined with ``t`` is a minimal hitting set, and so is a
minimum hitting set.  ``forced_minima`` is the one routine for this
question: it answers the asked vertices at once, settles the members of
a component's minimum set at its minimum, starts each other vertex's
search below the smallest such set through it, and answers twins,
vertices on the same edges, once; the other components add their own
minima, found once for the whole family.  Its bound ``most`` decides
"at most k" questions without finding larger sizes; ``minimum_members``
asks, at the family's minimum, found once, which vertices lie in some
minimum hitting set: the most responsible causes, and the facts that
cardinality repairs delete.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain, product
from math import prod

from .errors import CapExceededError, SemanticError
from .queries import UnionQuery, _Index, witnesses
from .relational import Fact, Instance, Record, fact_key, set_key

DEFAULT_CAP = 100_000


def minimal_sets(sets: Iterable[frozenset]) -> list[frozenset]:
    """Subset-minimal members of a family (its antichain), smallest first;
    members of equal size keep their input order; the empty set absorbs
    all.  Each kept set is filed (``filed``) under its member with the
    fewest filed, and a set is tested against those under its members only."""
    result: list[frozenset] = []
    filed: dict = {}  # member -> the kept sets filed under it
    for s in sorted(dict.fromkeys(sets), key=len):
        if not s:
            return [s]
        buckets = [filed.setdefault(v, []) for v in s]
        if not any(r <= s for bucket in buckets for r in bucket):
            result.append(s)
            min(buckets, key=len).append(s)
    return result


def antichain(sets: Iterable[frozenset], key=fact_key) -> tuple[frozenset, ...]:
    """The subset-minimal members of a family, in canonical order."""
    return tuple(sorted(minimal_sets(sets), key=lambda s: set_key(s, key)))


# ---------------------------------------------------------------------------
# Support sets


def support_sets(d: Instance, q: UnionQuery) -> tuple[frozenset[Fact], ...]:
    """All subset-minimal sub-instances satisfying some disjunct of ``q``.

    The family is empty exactly when ``q`` is false on ``d``.
    """
    if not q.is_boolean:
        raise SemanticError("support sets are defined for boolean queries")
    images: set[frozenset[Fact]] = set()
    index = _Index(d)
    for cq in q.disjuncts:
        images |= witnesses(index, cq)
    return antichain(images)


def endogenous_part(
    family: Iterable[frozenset[Fact]], endogenous: frozenset[Fact]
) -> tuple[frozenset[Fact], ...]:
    """Endogenous restriction of a support family.

    A support set made purely of exogenous facts restricts to the empty
    edge, which absorbs every other edge: the result is then ``(∅,)``,
    a family with no hitting set at all.
    """
    return antichain(e & endogenous for e in family)


def endogenous_support_sets(d: Instance, q: UnionQuery) -> tuple[frozenset[Fact], ...]:
    """Endogenous restrictions of the support sets: the conflicts of
    causes, diagnoses and endogenous repairs.  Empty exactly when ``q`` is
    false; ``(∅,)``, which no set hits, when some support set is all
    exogenous, since no endogenous deletion then falsifies ``q``.
    """
    family = support_sets(d, q)
    if not d.exogenous:
        return family  # the restriction is the identity
    return endogenous_part(family, d.endogenous)


# ---------------------------------------------------------------------------
# The search


def _table(edges: Iterable[frozenset], key=fact_key) -> tuple[list, list[int]]:
    """The family as bitmasks: its vertices in ``key`` order, and one mask
    per edge with bit ``i`` set for vertex ``i``."""
    edges = list(edges)
    vertices = sorted({v for e in edges for v in e}, key=key)
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    return vertices, [sum(bit[v] for v in e) for e in edges]


def _bits(mask: int):
    """The one-bit masks of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _components(masks: list[int]) -> list[tuple[int, list[int]]]:
    """The edges grouped into connected components (edges sharing a
    vertex), each with the union of its edges; an empty edge is a
    component of its own."""
    parts: dict[int, tuple[int, list[int]]] = {}
    owner: dict[int, int] = {}  # vertex -> the part it lies in
    for i, e in enumerate(masks):
        joined, group = e, [e]
        for part in {owner[v] for v in _bits(e) if v in owner}:
            vertices, edges = parts.pop(part)
            joined |= vertices
            group += edges
        owner.update(dict.fromkeys(_bits(joined), i))
        parts[i] = (joined, group)
    return list(parts.values())


def _reduced(masks: list[int], most: int | None = None) -> tuple[int, list[int]] | None:
    """The kernel of a family for its minimum hitting-set size, by the
    unit-edge, edge-inclusion and domination rules (of two twins the first
    stays): the mask of the vertices it takes, and the edges left; ``None``
    when an edge is empty, or once a round has taken more than ``most``
    vertices.  Minimal hitting sets are lost: it serves minima only."""
    taken = 0
    while True:
        kept: list[int] = []
        lowest: dict[int, list[int]] = {}  # vertex -> kept edges it is lowest on
        for e in sorted(set(masks), key=int.bit_count):  # units come first
            if e & taken:
                continue
            if not e & (e - 1):  # no vertex or one
                if not e:
                    return None
                taken |= e
                continue
            rest = e
            while rest:  # a kept edge inside e has its lowest vertex in e
                v = rest & -rest
                rest ^= v
                if v in lowest and any(k & e == k for k in lowest[v]):
                    break
            else:
                kept.append(e)
                lowest.setdefault(e & -e, []).append(e)
        if most is not None and taken.bit_count() > most:
            return None
        common: dict[int, int] = {}  # vertex -> the vertices on all its edges
        for e in kept:
            rest = e
            while rest:
                v = rest & -rest
                rest ^= v
                common[v] = common.get(v, e) & e
        dropped = 0
        for v, others in common.items():
            others &= ~v
            while others:
                u = others & -others
                others ^= u
                # an earlier vertex there dominates v or is its twin; a
                # later one dominates it only if v is not on all its edges
                if u < v or not common[u] & v:
                    dropped |= v
                    break
        if not dropped:
            return taken, kept
        masks = [e & ~dropped for e in kept]


def _search(masks: list[int], found, most: int | None = None, through: int = 0) -> None:
    """Visit every subset-minimal hitting set of the edge masks with at
    most ``most`` members, and holding the vertex ``through`` if one is
    given, once, calling ``found`` on its vertex mask; ``found`` returns
    the new bound, ``None`` for none."""
    masks = sorted(masks, key=int.bit_count)  # small edges pack best
    on: dict[int, int] = {}  # vertex -> mask of the edges it lies on
    for i, e in enumerate(masks):
        for v in _bits(e):
            on[v] = on.get(v, 0) | 1 << i
    rows = [
        sorted(((v, on[v]) for v in _bits(e)), key=lambda r: (-r[1].bit_count(), r[0]))
        for e in masks
    ]
    chosen = [through] if through else []
    bound = len(masks) if most is None else most

    def branches(uncovered, banned, crit):
        # crit[i]: the edges that chosen[i] alone hits.  Branch on the
        # unhit edge with the fewest vertices left; pairwise disjoint unhit
        # edges each need a vertex of their own (a packing), so no set
        # below this node is smaller than len(chosen) + packed
        fewest = packed = used = 0
        for low in _bits(uncovered):
            i = low.bit_length() - 1
            left = masks[i] & ~banned
            if not left:
                return
            if not fewest or left.bit_count() < fewest:
                fewest, row = left.bit_count(), rows[i]
            if not left & used:
                used |= left
                packed += 1
        for v, mask in row:
            if len(chosen) + packed > bound:
                return
            if not v & banned:
                kept = [c & ~mask for c in crit]
                if all(kept):
                    chosen.append(v)
                    yield uncovered & ~mask, banned, kept + [uncovered & mask]
                    chosen.pop()
            banned |= v

    crit = [on[through]] if through else []  # at the root, through alone hits its edges
    # a stack of open nodes, not recursion: sets may be thousands deep
    stack = [iter([((1 << len(masks)) - 1 & ~sum(crit), 0, crit)])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        elif node[0]:
            stack.append(branches(*node))
        elif (bound := found(sum(chosen))) is None:
            bound = len(masks)  # a minimal set needs one edge per member


class HittingSolution(Record):
    """The subset-minimal hitting sets that a family's enumeration keeps,
    per connected component, each with its indexes into ``vertices``,
    ascending; an empty edge's component has none, and a family with no
    edge has no component.  Unhashable: its fields are a list and dicts."""

    __slots__ = ("vertices", "parts", "cap")

    def __init__(self, vertices: list, parts: tuple[dict[frozenset, list[int]], ...], cap: int):
        self.vertices = vertices
        self.parts = parts
        self.cap = cap

    __hash__ = None

    def kept(self, choice) -> HittingSolution:
        """``choice`` applied to each component's list of sets."""
        parts = tuple({s: part[s] for s in choice(list(part))} for part in self.parts)
        return HittingSolution(self.vertices, parts, self.cap)

    def indexes(self, at=None) -> list[list[int]]:
        """The product, in canonical order: each member's vertex indexes,
        the sorted join of one set's from each component, or the numbers
        that ``at`` (a list or a dict) gives them, sorted after the
        renumbering, so any one-to-one ``at`` works; ``CapExceededError``
        once it has more than ``cap`` members."""
        if prod(map(len, self.parts)) > self.cap:
            raise CapExceededError(self.cap)
        lists = [part.values() if at is None else [[at[i] for i in indexes] for indexes in part.values()]
                 for part in self.parts]
        return sorted(map(sorted, map(chain.from_iterable, product(*lists))))

    @property
    def sets(self) -> tuple[frozenset, ...]:
        """The members of ``indexes`` as sets of vertices."""
        vertices = self.vertices
        return tuple(frozenset(map(vertices.__getitem__, indexes)) for indexes in self.indexes())


def enumerate_minimal_hitting_sets(
    edges: Iterable[frozenset], cap: int | None = None, key=fact_key, *, through=None, smallest: bool = False
) -> HittingSolution:
    """Each connected component's subset-minimal hitting sets, with the
    vertices in ``key`` order: in ``through``'s component only those that
    hold it (none at all, with no search, when it lies on no edge), and
    under ``smallest`` only the smallest a component keeps.  Only kept
    sets are visited.  Exponential families exist even for one fixed
    constraint: ``CapExceededError`` is raised once a component keeps
    more than ``cap`` sets, and by ``sets`` once the product has more."""
    cap = DEFAULT_CAP if cap is None else cap
    vertices, masks = _table(edges, key)
    if through is not None and through not in vertices:
        return HittingSolution(vertices, ({},), cap)
    t = 0 if through is None else 1 << vertices.index(through)
    parts = []
    for part, group in _components(masks):
        found: dict[frozenset, list[int]] = {}  # each set found -> its vertex indexes
        seed, most = t & part, None
        if smallest:
            least = _least(group)  # None: an empty edge, which no set hits
            most = (_forced(vertices, group, least, [through], len(group))[through] if seed
                    else least and least.bit_count())

        def add(chosen):
            indexes = [v.bit_length() - 1 for v in _bits(chosen)]  # ascending
            found[frozenset([vertices[i] for i in indexes])] = indexes
            if len(found) > cap:
                raise CapExceededError(cap)
            return most

        if not smallest or most is not None:  # else the component keeps no set
            _search(group, add, most, seed)
        parts.append(found)
    return HittingSolution(vertices, tuple(parts), cap)


def _least(masks: list[int], most: int | None = None) -> int | None:
    """The mask of a minimum hitting set of the edge masks, if it has at
    most ``most`` members; ``None`` otherwise, as when an edge is empty.
    The kernel (``_reduced``) checks its taken vertices against ``most``
    in every round, and with no edge left it is the answer at once; else
    its components are searched one by one, each within what the taken
    vertices and the earlier components left of ``most``."""
    most = len(masks) if most is None else most  # no minimal hitting set is larger
    kernel = _reduced(masks, most)
    if kernel is None or not kernel[1]:  # none within most, or no edge left to search
        return kernel and kernel[0]
    chosen, edges = kernel

    def found(mask):
        nonlocal best
        best = mask
        return mask.bit_count() - 1

    for _, group in _components(edges):
        best = None
        _search(group, found, most - chosen.bit_count())
        if best is None:
            return None
        chosen |= best
    return chosen


def minimum_size(edges: Iterable[frozenset]) -> int | None:
    """The size of a minimum hitting set; ``None`` when an edge is empty."""
    least = _least(_table(edges)[1])
    return None if least is None else least.bit_count()


def _forced_rest(edges: list[int], t: int, most: int, floor: int):
    """A least hitting set, as a mask, of the edges without ``t`` that
    avoids the other vertices of one of ``t``'s witness edges, if it has
    at most ``most`` members; ``None`` otherwise.  The witness edges share
    one bound, and the search stops once a size reaches ``floor``, a known
    lower bound."""
    rest = [e for e in edges if not e & t]
    best = None
    for w in edges:
        if most < floor:
            break
        if w & t and (found := _least([e & ~w for e in rest], most)) is not None:
            best, most = found, found.bit_count() - 1
    return best


def forced_minima(edges: Iterable[frozenset], key=fact_key, *, among=None, most: int | None = None) -> dict:
    """For each vertex ``t`` of ``among`` (by default every vertex of the
    family, in ``key`` order), the least size of a subset-minimal hitting
    set holding ``t``, in which ``t`` is irredundant; ``None`` when there
    is none, as when ``t`` lies on no edge, or when it has more than
    ``most`` members.  The whole family's minimum is found first
    (``_least``), so taken vertices beyond ``most`` answer before any
    search, and no component's minimum is searched beyond what ``most``
    leaves."""
    vertices, masks = _table(edges, key)
    most = len(masks) if most is None else most  # no minimal hitting set is larger
    return _forced(vertices, masks, _least(masks, most), among, most)


def minimum_members(edges: Iterable[frozenset], key=fact_key, *, among=None) -> tuple[int | None, list]:
    """The size of a minimum hitting set (``None`` when an edge is empty)
    and the vertices of ``among`` (default: all, in ``key`` order) in some
    minimum hitting set: ``forced_minima`` at most the minimum, found once."""
    vertices, masks = _table(edges, key)
    least = None if (chosen := _least(masks)) is None else chosen.bit_count()
    return least, [v for v, n in _forced(vertices, masks, chosen, among, least).items() if n is not None]


def _forced(vertices: list, masks: list[int], chosen: int | None, among, most: int | None) -> dict:
    """``forced_minima`` on the family's table, given ``chosen``, a
    minimum set of each component joined (``None``: none within ``most``).
    ``t``'s size is 1, plus its forced rest, at least its component's
    minimum ``m`` and at most a known minimal set's size through ``t``
    (each bounds the witness edges' search, so at the family's minimum a
    rest is searched below ``m`` only), plus the other components'
    minima.  Only the components of ``among`` are walked."""
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    among = vertices if among is None else list(among)
    if chosen is None:
        return dict.fromkeys(among)
    asked = sum({bit.get(v, 0) for v in among})
    total = chosen.bit_count()
    sizes: dict[int, int] = {}  # vertex -> its size, if at most most
    for part, group in _components(masks):
        if not part & asked:
            continue
        least = chosen & part
        m = least.bit_count()
        limit = most - total + m  # the most members of a set through t here
        on = dict.fromkeys(_bits(part & asked), 0)  # asked vertex -> mask of the edges it lies on
        for i, e in enumerate(group):
            for v in _bits(e & asked):
                on[v] |= 1 << i
        upper = dict.fromkeys(_bits(least), m)  # vertex -> a minimal set's size through it
        within: dict[int, int] = {}  # the edges a vertex lies on -> its size here
        for t in on:
            if on[t] not in within:
                bound = upper.get(t, limit + 1)  # a known size through t, else one past limit
                # only a strictly smaller rest improves on it
                if bound != m and (rest := _forced_rest(group, t, bound - 2, floor=m - 1)) is not None:
                    bound = 1 + rest.bit_count()
                    for u in _bits(rest | t):
                        upper[u] = min(bound, upper.get(u, bound))
                within[on[t]] = bound
            if within[on[t]] <= limit:
                sizes[t] = within[on[t]] + total - m
    return {v: sizes.get(bit.get(v)) for v in among}
