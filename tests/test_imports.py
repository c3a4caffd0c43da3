"""Every name a package module imports is used in that module, every
module-level private function and class is referenced from elsewhere,
every parameter of every function is read in its body (``self`` and
``cls`` excepted: an override keeps its signature), no field of a
record (``Fact``, ``Instance``, the query classes and the engines'
result classes) is assigned outside its class's ``__init__`` (records
are immutable by convention; ``Fact`` and ``AttrChange`` hash once),
no class but ``Record``, ``Fact`` and ``AttrChange`` defines ``__eq__``
or ``__hash__`` (``Record`` gives the other records both), importing the
CLI loads neither ``dataclasses`` nor ``inspect``, nor (without ``site``)
``typing``, ``json``, ``decimal``, ``fractions``, ``graphlib`` or the
oracle, nor do its repair, diagnosis and CQA runs, the command-line
front end uses only the engines' public names, every public function or
class is used by some package module or listed in ``API_ONLY`` with its
reason, and no public function only hands its parameters on to another
package function (a thin wrapper), unless ``API_ONLY`` lists it.

A stdlib ``ast`` check standing in for a linter.  ``__init__`` exists to
re-export, so it is exempt from the import check.  String annotations
count as uses of the names they mention.  A private helper's references
inside its own body (recursion) do not keep it alive.
"""

import ast
import functools
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "causerepair"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.AST) -> set[str]:
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    assert sorted(_imported(tree) - _used(tree)) == []


@functools.cache
def _top_level_uses() -> list[tuple[Path, ast.stmt, set[str]]]:
    """Each top-level statement of the package with its module and the
    names it uses, attribute names included."""
    uses = []
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            attributes = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            uses.append((path, node, _used(node) | attributes))
    return uses


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_definition_is_referenced(path):
    uses = _top_level_uses()
    private = [
        node for where, node, _ in uses
        if where == path and isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]
    orphans = [
        node.name for node in private
        if not any(node.name in names for _, other, names in uses if other is not node)
    ]
    assert orphans == []


def _parameters(node) -> list[ast.arg]:
    a = node.args
    return [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    unread = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            params = _parameters(node)
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            unread += [
                f"{name}:{node.lineno} {p.arg}"
                for p in params if p.arg not in read | {"self", "cls"}
            ]
    assert unread == []


# The records, immutable by convention: each field, as its class's
# ``__slots__`` names it, is assigned only in that class's ``__init__``.
# A cached property's value is no field: ``vars(d).update(...)`` may set it.
RECORDS = {
    "relational.py": ("Fact", "Instance"),
    "queries.py": ("Var", "Atom", "ConjunctiveQuery", "UnionQuery", "DenialConstraint",
                   "DenialConstraintSet"),
    "hitting.py": ("HittingSolution",),
    "causality.py": ("CauseReport",),
    "diagnosis.py": ("DiagnosisProblem",),
    "preferences.py": ("AttrChange",),
}
# Other classes' ``__init__`` with a field of a record's name, and those names.
OTHER_OWNERS = {
    ("cli.py", "_Inputs.__init__"): {"args"},
    ("parsing.py", "_Parser.__init__"): {"source"},
    ("errors.py", "CapExceededError.__init__"): {"cap"},
}


@functools.cache
def _record_owners() -> dict[tuple[str, str], frozenset[str]]:
    """``(module, "Class.__init__")`` -> the fields that ``__init__`` may
    assign: a record's own ``__slots__``, or an ``OTHER_OWNERS`` entry."""
    owners = {key: frozenset(names) for key, names in OTHER_OWNERS.items()}
    for module, names in RECORDS.items():
        classes = {node.name: node for node in ast.parse((PACKAGE / module).read_text()).body
                   if isinstance(node, ast.ClassDef)}
        for name in names:
            (slots,) = [stmt.value for stmt in classes[name].body if isinstance(stmt, ast.Assign)
                        and [getattr(t, "id", None) for t in stmt.targets] == ["__slots__"]]
            owners[module, f"{name}.__init__"] = frozenset(ast.literal_eval(slots)) - {"__dict__"}
    return owners


def _field_assignments(name: str, source: str) -> list[str]:
    """Each assignment, deletion or ``setattr`` of a record's field name in
    ``source`` outside the functions allowed to make it."""
    owners = _record_owners()
    fields = frozenset().union(*owners.values())
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        attrs = [
            t.attr for target in targets for t in ast.walk(target)
            if isinstance(t, ast.Attribute) and isinstance(t.ctx, (ast.Store, ast.Del))
        ]
        if isinstance(node, ast.Call) and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) in ("setattr", "__setattr__", "delattr"):
                attrs.append(node.args[1].value)
        found.extend(
            f"{name}:{node.lineno} {attr}" for attr in attrs
            if attr in fields and attr not in owners.get((name, scope), ())
        )
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


# named for ``Fact``, the first record it covered; it checks every record
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_fact_field_is_assigned_after_construction(path):
    assert _field_assignments(path.name, path.read_text()) == []


def test_the_fact_field_lint_catches_a_planted_assignment():
    source = (PACKAGE / "relational.py").read_text()
    assert _field_assignments("relational.py", source) == []
    planted = [
        "def retag(f):\n    f.tag = 'exogenous'\n",
        "def rename(f):\n    f.pred, x = 'R', 1\n",
        "def bump(f):\n    f.args += ('a',)\n",
        "def forge(f):\n    object.__setattr__(f, '_hash', 0)\n",
        "def forget(f):\n    del f.fact_id\n",
        "class Fact:\n    def with_args(self, args):\n        self.args = args\n",
    ]
    for extra in planted:
        assert len(_field_assignments("relational.py", source + extra)) == 1, extra
    assert len(_field_assignments("cli.py", planted[0])) == 1  # only ``_Inputs.__init__`` is exempt there


def test_the_record_field_lint_catches_a_planted_assignment():
    assert len(_record_owners()) == sum(map(len, RECORDS.values())) + len(OTHER_OWNERS)
    planted = {
        "relational.py": [
            "def grow(d, f):\n    d.facts |= {f}\n",
            "class Instance:\n    def __init__(self, facts):\n        self.pred = facts\n",  # not its field
        ],
        "queries.py": [
            "def rebind(v):\n    v.name = 'Y'\n",
            "def shrink(q):\n    setattr(q, 'disjuncts', ())\n",
            "class ConjunctiveQuery:\n    def close(self):\n        self.free_vars = ()\n",
        ],
        "hitting.py": ["def narrow(solution, parts):\n    solution.parts = parts\n"],
        "preferences.py": [
            "def move(c):\n    c.position += 1\n",
            "def swap(r, d):\n    r.source = d\n",
        ],
        "cli.py": ["def rank(report):\n    report.responsibility = 0\n"],
    }
    for module, extras in planted.items():
        source = (PACKAGE / module).read_text()
        assert _field_assignments(module, source) == []
        for extra in extras:
            assert len(_field_assignments(module, source + extra)) == 1, extra
    # an exempt ``__init__`` may assign only its own fields
    assert len(_field_assignments("parsing.py", "class _Parser:\n    def __init__(self):\n"
                                                "        self.source = self.cap = 0\n")) == 1
    allowed = "def cache(d, relations):\n    vars(d).update(relations=relations)\n"
    assert _field_assignments("relational.py", allowed) == []


# The classes that define equality and hashing: ``Record`` for every other
# record, and the hot keys ``Fact`` and ``AttrChange``, which cache their
# hashes.  ``__hash__ = None`` defines none (``HittingSolution``).
EQUALITY_OWNERS = {"relational.py": {"Record", "Fact"}, "preferences.py": {"AttrChange"}}


def _equality_definitions(name: str, source: str) -> list[str]:
    """Each ``__eq__`` or ``__hash__`` in ``source`` that a class body
    defines or assigns, or that code assigns as an attribute, with the
    class it is in, unless ``EQUALITY_OWNERS`` lists that class."""
    found = []

    def visit(node, owner):
        defined = []
        if isinstance(node, ast.ClassDef):
            owner = node.name
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined.append((stmt.lineno, stmt.name))
                elif isinstance(stmt, ast.Assign):
                    unhashable = isinstance(stmt.value, ast.Constant) and stmt.value.value is None
                    defined += [(stmt.lineno, t.id) for target in stmt.targets for t in ast.walk(target)
                                if isinstance(t, ast.Name) and not (unhashable and t.id == "__hash__")]
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.append((node.lineno, node.attr))
        found.extend(f"{name}:{line} {owner}.{method}" for line, method in defined
                     if method in ("__eq__", "__hash__") and owner not in EQUALITY_OWNERS.get(name, ()))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_record_fact_and_attr_change_define_equality(path):
    assert _equality_definitions(path.name, path.read_text()) == []


def test_the_equality_lint_catches_a_planted_definition():
    planted = {
        "queries.py": [
            "class Var:\n    def __eq__(self, other):\n        return True\n",
            "class Atom:\n    __hash__ = object.__hash__\n",
            "class ConjunctiveQuery:\n    __eq__ = __hash__ = None\n",  # ``__eq__ = None`` is one
            "Var.__hash__ = lambda v: 0\n",
            "def patch(cls):\n    cls.__eq__ = lambda a, b: True\n",
        ],
        "hitting.py": ["class HittingSolution:\n    __hash__ = lambda s: 0\n"],
        "preferences.py": ["class Fact:\n    def __hash__(self):\n        return 0\n"],  # not this module's
        "relational.py": ["class Instance:\n    class Record:\n        pass\n    __eq__ = object.__eq__\n"],
    }
    for module, extras in planted.items():
        source = (PACKAGE / module).read_text()
        assert _equality_definitions(module, source) == []
        for extra in extras:
            assert len(_equality_definitions(module, source + extra)) == 1, extra
    allowed = [
        "class HittingSolution:\n    __hash__ = None\n",
        "class Fact:\n    def __eq__(self, other):\n        return True\n",
        "class Record:\n    def __init_subclass__(cls):\n        cls.__eq__ = cls.__hash__ = None\n",
    ]
    for extra in allowed:
        assert _equality_definitions("relational.py", extra) == [], extra


def test_the_cli_loads_neither_dataclasses_nor_inspect():
    # ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``
    # and compiles each record's methods: about half of the CLI's import time
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import causerepair.cli; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(PACKAGE.parent)],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[]\n"


# Loaded neither by importing the CLI nor by its repair, diagnosis and CQA runs
_COLD_START = """
import sys
unused = {"typing", "json", "decimal", "fractions", "graphlib", "causerepair.oracle"}
sys.path.insert(0, sys.argv[1])
import causerepair.cli
print(sorted(unused & sys.modules.keys()))
for argv in sys.argv[2:]:
    code, out, err = causerepair.cli.execute(argv.split())
    assert code == 0 and out, (argv, err)
print(sorted(unused & sys.modules.keys()))
"""


def test_the_cli_cold_start_loads_only_what_its_runs_use(tmp_path):
    # ``site`` imports ``typing`` itself, so the child runs without it (-S)
    (tmp_path / "keyed.facts").write_text("A(1;k0,v0). A(2;k0,v1). A(3;k1,v0). A(4;k1,v1). A(5;k2,v0).\n")
    (tmp_path / "key.dlq").write_text(":- A(X,Y), A(X,Z), Y != Z.\n")
    (tmp_path / "keyq.dlq").write_text("q :- A(X,Y), A(X,Z), Y != Z.\n")
    runs = [*(f"repairs -i keyed.facts -c key.dlq --semantics {s} --json" for s in ("s", "c", "null")),
            "diagnose -i keyed.facts -q keyq.dlq --json",
            "cqa -i keyed.facts -c key.dlq --atoms A(k2,v0) --semantics c --json"]
    done = subprocess.run([sys.executable, "-I", "-S", "-c", _COLD_START, str(PACKAGE.parent), *runs],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[]\n[]\n"


def _private_engine_names(source: str) -> list[str]:
    """Each ``_name`` that ``source`` imports from another package module,
    or reads as an attribute of a package module it imports."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for a in node.names:
                if node.module is None:
                    modules.add(a.asname or a.name)
                if a.name.startswith("_"):
                    found.append(f"{node.lineno} {node.module or '.'}.{a.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            found.append(f"{node.lineno} {node.value.id}.{node.attr}")
    return found


def test_the_front_end_uses_only_public_engine_names():
    assert _private_engine_names((PACKAGE / "cli.py").read_text()) == []


def test_the_public_name_lint_catches_a_planted_use():
    planted = [
        "from . import preferences\npreferences._nulled(f, ())\n",
        "from .preferences import _nulled\n",
        "from . import queries as q\nq._Index(d)\n",
    ]
    for source in planted:
        assert len(_private_engine_names(source)) == 1, source
    allowed = "from .repairs import repairs as _compute_repairs\nfrom . import cli\n_x._y\n"
    assert _private_engine_names(allowed) == []


# Public definitions that no package module uses, each with the reason it
# is kept for library callers.
API_ONLY = {
    "actual_causes": "the paper's causes on their own, without responsibilities",
    "explain": "one fact's causal status, responsibility and contingency sets in one call",
    "answer_dc": "the denial constraints of one answer of an open query",
    "eval_answers": "the answers of an open query",
    "is_consistent": "whether an instance satisfies a denial constraint set",
    "is_repair": "repair checking without enumeration",
    "check_preference_contingency": "membership among the preference-restricted contingency sets",
    "null_causes": "attribute- and tuple-level causes under null-based repairs",
    "check_wellformed": "the one public check of an instance built in code",
    "oracle_hitting": "the brute-force reference for the hitting-set layer",
}


def _unused_public(sources: dict[str, str], allowed=API_ONLY) -> list[str]:
    """Each public top-level function or class in ``sources`` (module name
    to text) that no other top-level statement names or imports, under
    any alias, unless ``allowed`` lists it."""
    statements = []
    for name, source in sources.items():
        for node in ast.parse(source).body:
            names = _used(node) | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            names |= {a.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom) for a in n.names}
            statements.append((name, node, names))
    return [
        f"{name} {node.name}" for name, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and node.name not in allowed
        and not any(node.name in names for _, other, names in statements if other is not node)
    ]


def _layer_sources() -> dict[str, str]:
    """Every package module but ``__init__``, whose re-exports are no use."""
    return {p.name: p.read_text() for p in MODULES}


def test_every_public_definition_is_used_or_api_only():
    assert _unused_public(_layer_sources()) == []


def test_each_api_only_name_is_defined_and_unused():
    found = _unused_public(_layer_sources(), allowed=())
    assert sorted(name.split()[1] for name in found) == sorted(API_ONLY)


def test_the_public_use_lint_catches_a_planted_definition():
    sources = _layer_sources()
    planted = dict(sources, **{"repairs.py": sources["repairs.py"] + (
        "\n\ndef bridge(d):\n    return bridge(d)\n\n\nclass Bridge:\n    pass\n"
    )})
    # recursion does not keep a definition alive
    assert _unused_public(planted) == ["repairs.py bridge", "repairs.py Bridge"]
    uses = [
        ("cli.py", "\nfrom .repairs import bridge as _bridge\n"),  # an aliased import
        ("queries.py", "\ndef walk(d):\n    return repairs.bridge(d)\n"),  # an attribute
        ("repairs.py", "\ndef answer(d):\n    return bridge(d)\n"),  # its own module
    ]
    for name, extra in uses:
        used = dict(planted, **{name: planted[name] + extra})
        assert "repairs.py bridge" not in _unused_public(used), extra


def _thin_wrappers(sources: dict[str, str], allowed=API_ONLY) -> list[str]:
    """Each public top-level function in ``sources`` whose whole body, a
    docstring aside, is ``return f(...)`` or ``return f(...).attr``, where
    ``f`` is a top-level function of ``sources``, by name or read off a
    module, and every argument is a parameter passed on unchanged; unless
    ``allowed`` lists it."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    functions = {node.name for tree in trees.values() for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    modules = {name.removesuffix(".py") for name in sources}
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, ast.FunctionDef) or node.name.startswith("_")
                    or node.name in allowed):
                continue
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
            if isinstance(call, ast.Attribute):
                call = call.value
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            on_module = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in modules
            callee = func.attr if on_module else getattr(func, "id", None)
            params = {p.arg for p in _parameters(node)}
            passed = [v.value if isinstance(v, ast.Starred) else v
                      for v in (*call.args, *(k.value for k in call.keywords))]
            if callee in functions and all(getattr(v, "id", None) in params for v in passed):
                found.append(f"{name} {node.name}")
    return found


def test_no_public_function_is_a_thin_wrapper():
    assert _thin_wrappers(_layer_sources()) == []


def test_the_thin_wrapper_lint_catches_a_planted_wrapper():
    sources = _layer_sources()
    assert _thin_wrappers(sources, allowed=()) == []  # no exception is needed

    def planted(extra):
        return dict(sources, **{"diagnosis.py": sources["diagnosis.py"] + "\n\n" + extra})

    wrappers = {
        "listed": "def listed(m, kind=SUBSET, containing=None, cap=None):\n"
                  "    return diagnoses(m, kind, containing, cap).sets\n",
        "family": 'def family(d, q):\n    """Doc."""\n    return hitting.support_sets(d, q=q)\n',
        "passed": "def passed(*args, **kwargs):\n    return diagnoses(*args, **kwargs)\n",
    }
    for name, extra in wrappers.items():
        assert _thin_wrappers(planted(extra)) == [f"diagnosis.py {name}"], extra
    others = [
        "def viewed(d, sigma):\n    return support_sets(d, violation_view(sigma))\n",  # built
        "def fixed(m):\n    return diagnoses(m, 'c')\n",  # a constant
        "def chosen(m, kind):\n    return diagnoses(m, kind.lower())\n",  # an argument changed
        "def outside(x):\n    return sorted(x)\n",  # not a package function
        "def method(d, q):\n    return d.support_sets(q)\n",  # a method, not a module's function
        "def _private(m):\n    return diagnoses(m)\n",  # private
        "def first(m):\n    return diagnoses(m).sets[0]\n",  # a subscript of the result
        "def more(m):\n    print(m)\n    return diagnoses(m)\n",  # more than the return
    ]
    for extra in others:
        assert _thin_wrappers(planted(extra)) == [], extra
    assert _thin_wrappers(planted(wrappers["listed"]), allowed={"listed": "a reason"}) == []
