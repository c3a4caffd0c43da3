"""Ground facts and partitioned instances.

An instance is a finite set of ground facts over opaque constants.  Every
fact carries a tag that marks it endogenous (a candidate for causes,
contingencies, and diagnoses) or exogenous (fixed background).  Fact
identity is the atom plus the optional tuple id; the tag is metadata and
never participates in identity.  A fact typed by a user is named by its
atom and, when it carries one, by its tuple id (``Instance.find`` and
``Instance.resolve``); without an id it names the atom's first fact in
canonical order.

The package's records (``Fact`` and ``Instance`` here, the query and
constraint classes, and the engines' ``HittingSolution``, ``CauseReport``,
``DiagnosisProblem`` and ``AttrChange``) are slotted classes; one with a
cached property keeps a ``__dict__`` for it, whose values are no fields.
They are immutable by convention: no code assigns a field outside its
class's ``__init__``.  ``Record`` is the one place that defines their
equality and hashing: a record equals only a record of its own class
with equal fields, and hashes as the tuple of its fields
(``HittingSolution``, with a list and dicts, sets ``__hash__ = None``).
``Fact`` and ``AttrChange``, the hot keys, are the exceptions: each
writes that rule out over its identity (a ``Fact``'s is ``(pred, args,
fact_id)``) and hashes once, when it is built; copies and pickles
rebuild them, so the hash is computed again in the process that loads
it.  AST checks in ``tests/test_imports.py`` enforce both conventions.
``Instance.relations`` groups an instance's facts by predicate and arity
once, each relation in iteration order; typed lookups and every join
over the instance read it.

The invariants are stated in ``violations``: one arity per predicate,
one tag per atom (whatever its tuple ids), and one fact per tuple id.
``check_wellformed`` lists them all.  ``parse_instance`` builds its
instance with ``checked_instance``, whose one pass checks them, groups
the facts in file order (whatever the string hashing), keys the atoms
and names the first problem in file order.  Other instances make these
lookups on first use.  ``Instance`` itself does not check, since
deletions build instances on hot paths, so ``check_wellformed`` is the
one public check for an instance built in code; it stays although no
engine calls it.  ``serialize_instance`` stays because ``Instance.__str__``
renders through it.  An atom-level difference of two instances that
ignores tuple ids has no engine that takes it, so it lives in the tests
beside its asserts.

Constants are plain strings.  The reserved token ``null`` denotes the
distinguished null value; it never joins with anything (including itself),
which is enforced by the query evaluator, not by string equality here.
"""

from __future__ import annotations

import re
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import SemanticError

ENDOGENOUS = "endogenous"
EXOGENOUS = "exogenous"
NULL = "null"

_BARE_TOKEN = re.compile(r"[a-z][A-Za-z0-9_]*\Z|-?[0-9]+\Z")


def is_null(value: str) -> bool:
    return value == NULL


def format_constant(value: str) -> str:
    """Render a constant the way the instance grammar accepts it."""
    if _BARE_TOKEN.match(value):
        return value
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


class Record:
    """A value equal to a record of its own class with equal fields, and
    hashed as their tuple.  Its fields are those its class's own
    ``__slots__`` names, ``__dict__`` aside; a subclass that names none
    keeps its parent's, and a class that sets ``__hash__`` keeps it."""

    __slots__ = ()

    def __init_subclass__(cls):
        fields = [name for name in cls.__dict__.get("__slots__", ()) if name != "__dict__"]
        if not fields:
            return
        get = attrgetter(*fields)

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return get(self) == get(other)

        if len(fields) == 1:  # ``get`` gives the bare value, not a tuple
            def __hash__(self):
                return hash((get(self),))
        else:
            def __hash__(self):
                return hash(get(self))

        cls.__eq__ = __eq__
        if "__hash__" not in cls.__dict__:
            cls.__hash__ = __hash__


class Fact:
    """A ground atom, e.g. ``R(a4,a3)`` or, with a tuple id, ``R(2;a3,a3)``.
    Immutable by convention; the tag never takes part in identity."""

    __slots__ = ("pred", "args", "tag", "fact_id", "_hash")

    def __init__(self, pred: str, args: tuple[str, ...], tag: str = ENDOGENOUS,
                 fact_id: int | None = None):
        self.pred = pred
        self.args = args
        self.tag = tag
        self.fact_id = fact_id
        self._hash = hash((pred, args, fact_id))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not Fact:
            return NotImplemented
        return self.pred == other.pred and self.args == other.args and self.fact_id == other.fact_id

    def __reduce__(self):
        # rebuilt, not restored: string hashes differ between processes
        return (Fact, (self.pred, self.args, self.tag, self.fact_id))

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def atom(self) -> tuple[str, tuple[str, ...]]:
        return (self.pred, self.args)

    @property
    def is_endogenous(self) -> bool:
        return self.tag == ENDOGENOUS

    def with_args(self, args: tuple[str, ...]) -> "Fact":
        return Fact(self.pred, args, self.tag, self.fact_id)

    def __str__(self) -> str:
        return format_fact(self)

    def __repr__(self) -> str:
        return f"Fact[{format_fact(self)}]"


def fact(pred: str, *args: str, tag: str = ENDOGENOUS, fact_id: int | None = None) -> Fact:
    """Convenience constructor: ``fact("R", "a4", "a3", tag=EXOGENOUS)``."""
    return Fact(pred, tuple(args), tag, fact_id)


def fact_key(f: Fact) -> tuple:
    """Canonical sort key: (predicate, args, id).  Total and deterministic."""
    return (f.pred, f.args, f.fact_id if f.fact_id is not None else -1)


def set_key(s, key=fact_key) -> list:
    """Canonical sort key of a set: its members' keys, in order."""
    return sorted(key(x) for x in s)


def format_fact(f: Fact) -> str:
    args = ",".join(format_constant(a) for a in f.args)
    if f.fact_id is not None:
        return f"{f.pred}({f.fact_id};{args})"
    return f"{f.pred}({args})"


class Instance(Record):
    """An immutable set of facts, implicitly partitioned by their tags."""

    __slots__ = ("facts", "__dict__")

    def __init__(self, facts: frozenset[Fact]):
        self.facts = facts

    @cached_property
    def sorted_facts(self) -> tuple[Fact, ...]:
        return tuple(sorted(self.facts, key=fact_key))

    @cached_property
    def endogenous(self) -> frozenset[Fact]:
        return frozenset(f for f in self.facts if f.tag == ENDOGENOUS)

    @cached_property
    def exogenous(self) -> frozenset[Fact]:
        return frozenset(f for f in self.facts if f.tag == EXOGENOUS)

    @cached_property
    def relations(self) -> dict[tuple[str, int], list[Fact]]:
        """(Predicate, arity) -> the facts of that relation."""
        return group_relations(self.facts)

    @cached_property
    def schema(self) -> dict[str, int]:
        """Predicate name -> arity; on conflicts, that of the predicate's
        first fact in canonical order (the one with the least arguments)."""
        return {f.pred: f.arity for f in reversed(self.sorted_facts)}

    @cached_property
    def by_atom(self) -> dict[tuple[str, tuple[str, ...]], Fact]:
        """Atom -> its first fact in canonical order."""
        return {f.atom: f for f in reversed(self.sorted_facts)}

    def find(self, pred: str, args: tuple[str, ...], fact_id: int | None = None) -> Fact | None:
        """The instance's fact with the given atom and, if given, tuple id."""
        found = self.by_atom.get((pred, args))
        if found is None or fact_id is None or found.fact_id == fact_id:
            return found
        probe = Fact(pred, args, fact_id=fact_id)
        return next((f for f in self.relations[pred, len(args)] if f == probe), None)

    def resolve(self, f: Fact) -> Fact:
        """The instance's fact that ``f`` names; absent is an error."""
        found = self.find(f.pred, f.args, f.fact_id)
        if found is None:
            raise SemanticError(f"{f} is not in the instance")
        return found

    def without(self, removed: Iterable[Fact]) -> "Instance":
        return Instance(self.facts - frozenset(removed))

    def __contains__(self, f: Fact) -> bool:
        return f in self.facts

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.sorted_facts)

    def __len__(self) -> int:
        return len(self.facts)

    def __str__(self) -> str:
        return serialize_instance(self)


def group_relations(facts: Iterable[Fact]) -> dict[tuple[str, int], list[Fact]]:
    """The facts by (predicate, arity), each relation in iteration order."""
    relations: dict[tuple[str, int], list[Fact]] = {}
    for f in facts:
        relation = relations.get((f.pred, len(f.args)))
        if relation is None:
            relations[f.pred, len(f.args)] = [f]
        else:
            relation.append(f)
    return relations


def violations(facts: Iterable[Fact]) -> Iterator[str]:
    """The instance invariants that ``facts`` break, in their order: one
    arity per predicate, one tag per atom, one fact per tuple id."""
    arities: dict[str, int] = {}
    tags: dict[tuple, str] = {}
    ids: dict[int, Fact] = {}
    for f in facts:
        pred, args, fact_id = f.pred, f.args, f.fact_id
        seen = arities.setdefault(pred, len(args))
        if seen != len(args):
            yield f"predicate {pred} used with arity {seen} and {len(args)}"
        if tags.setdefault((pred, args), f.tag) != f.tag:
            yield f"atom {format_fact(Fact(pred, args))} is both endogenous and exogenous"
        if fact_id is not None:
            other = ids.setdefault(fact_id, f)
            if other != f:
                yield f"id {fact_id} used by both {other} and {f}"


def checked_instance(facts: list[Fact]) -> Instance:
    """The instance of ``facts``, repeats dropped, made in the one pass
    that checks them: its ``relations`` (in the order of ``facts``),
    ``by_atom``, ``schema`` and, if all are endogenous, ``exogenous`` come
    with it.  It raises the first problem ``violations`` finds in ``facts``."""
    relations: dict[tuple[str, int], list[Fact]] = {}
    schema, by_atom, ids = {}, {}, {}
    all_endogenous, pred_of, arity, relation = True, None, -1, []
    for f in facts:
        pred, args, fact_id = f.pred, f.args, f.fact_id
        first = by_atom.setdefault((pred, args), f)
        if first is not f:  # the atom again: a repeat, or under another id
            if first.tag != f.tag:
                break
            if fact_id is None and first.fact_id is None:
                continue
            if fact_key(f) < fact_key(first):
                by_atom[pred, args] = f
        if fact_id is not None:
            other = ids.setdefault(fact_id, f)
            if other is not f:
                if other != f:
                    break
                continue  # a repeat
        if pred != pred_of or len(args) != arity:  # files list a relation's facts together
            pred_of, arity = pred, len(args)
            relation = relations.get((pred, arity))
            if relation is None:
                if schema.setdefault(pred, arity) != arity:
                    break
                relation = relations[pred, arity] = []
        relation.append(f)
        if all_endogenous and f.tag != ENDOGENOUS:
            all_endogenous = False
    else:
        d = Instance(frozenset(facts))  # a cached property reads vars(d) first
        vars(d).update(relations=relations, by_atom=by_atom, schema=schema)
        if all_endogenous:
            vars(d).update(endogenous=d.facts, exogenous=frozenset())
        return d
    raise SemanticError(next(violations(facts)))


def check_wellformed(d: Instance) -> list[str]:
    """Every invariant violation in ``d``, in canonical fact order; empty
    means well-formed."""
    return list(violations(d.sorted_facts))


def serialize_instance(d: Instance) -> str:
    """Canonical text form; parsing it back yields an equal instance."""
    lines = []
    endo = sorted(d.endogenous, key=fact_key)
    exo = sorted(d.exogenous, key=fact_key)
    if endo or not exo:
        lines.append("@endogenous")
        lines.extend(f"{format_fact(f)}." for f in endo)
    if exo:
        lines.append("@exogenous")
        lines.extend(f"{format_fact(f)}." for f in exo)
    return "\n".join(lines) + "\n"
