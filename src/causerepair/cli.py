"""Command-line front end.

One subcommand per engine capability, each reading an instance (``-i``)
and either a query (``-q``) or a constraint set (``-c``), and emitting
either plain text or, with ``--json``, a canonical report: fixed key
order, facts in canonical order, responsibilities as exact ``{num, den}``
pairs.  Repeated runs on identical inputs produce byte-identical output.

``execute`` hands the words after the subcommand straight to its parser,
which names the handler, then parses the instance, then the query or the
constraints, and hands both to it: an instance error comes before a
program error, and both before any other.  The report's ``command`` is
the subcommand (``oracle.causes`` and so on).

The report is written by ``_json``, which appends its pieces to one list
and joins the report, trailing newline included, once; it is
byte-identical to ``json.dumps(report, indent=2, sort_keys=True)``.  Text
lines are built only when no ``--json`` is given, and joined once too.
Each fact of the instance is formatted once per invocation, and under
``--json`` escaped once per report, as is each nulled fact and change.
A report of repairs, null repairs, conflicts or diagnoses writes each
entry as pieces: slices of all the names joined once (``_Slices``),
between the sorted positions of the facts it lists or leaves out; the
engines' hitting solutions give those once per report, as index lists
(a null repair's changes by their places in name order, its change set
applied once by ``preferences.change_applier``).  The entries go into a
``_Names`` list, whose pieces ``_json`` adds as they are.

The front end checks syntax only; the engines check meaning.  A typed
fact (``--tuple``, ``--gamma``, ``--containing``, ``--atoms``, a priority
file) names the instance's fact with its atom and, if it has one, its
tuple id; an absent one is an error, except that ``rdp`` and ``cqa``
answer false.  ``--threshold`` is read as a fraction, malformed if its
numerator or denominator as written has more than 4,300 digits, and
``rdp_decide`` alone requires 0 or 1/k.  ``--max-enum`` caps the
enumerations of ``repairs``, ``diagnose`` and ``preferred-causes`` and
exists on those three only.  ``repairs`` hands every deletion semantics
to the one engine, ``repairs.repairs``, which requires a priority under
``--semantics go``; ``--priority`` under any other is rejected before
its file is read.  A priority file's pairs go to the engine as parsed,
and the engine checks them against the family it searches
(``repairs.repairs`` and ``preferences.preferred_causes``).  The
``oracle`` subcommands have handlers of their own, apart from the
engines they check.

Exit codes: 0 success (including negative decisions), 1 usage or parse
errors (a negative ``--max-enum``, ``--max-enum`` on a subcommand that
does not enumerate, and an input file that is not UTF-8 text included),
2 semantic errors (``--priority`` without ``--semantics go`` included),
3 an enumeration cap exceeded or an oracle input above its bound.  The
cap counts the sets each conflict component keeps (``go`` and
``preferred-causes`` keep all, then choose) and the product that
``repairs`` or ``diagnose`` lists; ``preferred-causes`` builds no product.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import sys
from fractions import Fraction

from . import causality, diagnosis, oracle, preferences
from .errors import BoundExceededError, CapExceededError, ParseError, SemanticError
from .repairs import consistent_answer as _consistent_answer, repairs
from .parsing import (
    constraint_set,
    parse_fact,
    parse_fact_list,
    parse_instance,
    parse_priorities,
    single_query,
)
from .relational import fact_key, format_fact

_encode_string = json.encoder.encode_basestring_ascii

USAGE_ERROR = 1
SEMANTIC_ERROR = 2
CAP_ERROR = 3


class _Exit(Exception):
    """An invocation ended by its parser: (exit code, stdout, stderr)."""


class _Parser(argparse.ArgumentParser):
    """Raises ``_Exit`` with a usage error or help where argparse prints and exits."""

    def error(self, message):
        raise _Exit(USAGE_ERROR, "", f"usage error: {message}\n")

    def print_help(self, file=None):
        if file is not None:  # asked for by a caller, not by -h
            return super().print_help(file)
        raise _Exit(0, self.format_help(), "")


def _enumeration_cap(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _fraction_json(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def _sorted_facts(facts) -> list[str]:
    return [format_fact(f) for f in sorted(facts, key=fact_key)]


class _Names(list):
    """JSON values written at the list's depth, each a string or the list
    of its pieces: ``_json`` adds them as they are."""


def _named(facts, escape: bool):
    """The names of ``facts``, given in canonical order, each fact's
    position there (a set of them is named by its sorted positions), and
    ``name``, which gives the names: escaped once per report when ``escape``."""
    name = functools.cache(_encode_string) if escape else str
    return [name(format_fact(f)) for f in facts], {f: i for i, f in enumerate(facts)}, name


def _json(value, end: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True) + end`` for str keys,
    joined once from its pieces: strings escaped in C, each dict key once
    per call, a ``_Names`` list as it is (a tuple is a list)."""
    pieces = []
    _write(pieces, {}, value, "\n")
    pieces.append(end)
    return "".join(pieces)


def _write(pieces: list[str], keys: dict[str, str], value, indent: str) -> None:
    """Appends ``value``'s pieces at ``indent``; ``keys`` holds each dict key as
    written.  A closure that called itself would hold ``pieces`` in a cycle."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        for opening, k in zip("{" + "," * len(value), sorted(value)):
            pieces.extend((opening + inner, keys.get(k) or keys.setdefault(k, _encode_string(k) + ": ")))
            _write(pieces, keys, value[k], inner)
        pieces.append(indent + "}")
    elif isinstance(value, (list, tuple)) and value:
        try:  # most lists hold names only, escaped without a call per name
            pieces.extend(("[" + inner, ("," + inner).join(
                value if type(value) is _Names else map(_encode_string, value))))
        except TypeError:  # or a _Names list holds the pieces of each item
            for opening, v in zip("[" + "," * len(value), value):
                pieces.append(opening + inner)
                if type(value) is _Names:
                    pieces.extend(v)
                else:
                    _write(pieces, keys, v, inner)
        pieces.append(indent + "]")
    elif value is None or type(value) in (int, bool):  # as Python writes it, lower-cased
        pieces.append("null" if value is None else str(value).lower())
    else:  # a string, a float, [] or {}
        pieces.append(_encode_string(value) if isinstance(value, str) else json.dumps(value))


class _Inputs:
    """Lazily parsed input files, remembering digests for the report."""

    def __init__(self, args):
        self.args = args
        self.digests: dict[str, dict] = {}

    def _read(self, role: str, path: str) -> str:
        """The file's text, read once: the digest covers the bytes parsed.
        Line ends are translated as text mode does."""
        with open(path, "rb") as handle:
            payload = handle.read()
        self.digests[role] = {"path": path, "sha256": hashlib.sha256(payload).hexdigest()}
        try:
            text = payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from exc
        return text.replace("\r\n", "\n").replace("\r", "\n")

    def instance(self):
        return parse_instance(self._read("instance", self.args.instance))

    def query(self):
        return single_query(self._read("query", self.args.query))

    def constraints(self):
        return constraint_set(self._read("constraints", self.args.constraints))

    def priorities(self):
        return parse_priorities(self._read("priority", self.args.priority))


def _render(args, inputs: _Inputs, result: dict, text_lines):
    if args.json:
        report = {
            "command": args.command,
            "argv": list(args.raw_argv),
            "inputs": {k: inputs.digests[k] for k in sorted(inputs.digests)},
            "result": result,
            "warnings": [],
        }
        return _json(report, "\n")
    return "\n".join(itertools.chain(text_lines, ("",)))


def _cause_listing(pairs, none_found: str) -> tuple[dict, list[str]]:
    """The report and text lines of scored causes, by falling value (each
    sorted and written once), then in canonical order; ``none_found`` is
    the one line printed when there are none."""
    groups: dict[Fraction, list] = {}
    for t, rho in pairs:
        groups.setdefault(rho, []).append(t)
    causes, lines = [], []
    for rho in sorted(groups, reverse=True):
        value, shown = _fraction_json(rho), str(rho)
        for name in _sorted_facts(groups[rho]):
            causes.append({"fact": name, "responsibility": value})
            lines.append(f"{name}  {shown}")
    return {"causes": causes}, lines or [none_found]


# Under --json a result list's entry, and then its keys, at their depths
_ITEM = "\n" + "  " * 3
_KEY = _ITEM + "  "


class _Slices:
    """Names joined once, each behind a comma and a line of its own at
    ``depth`` of the report, or in text (no depth) behind ", ".  ``picked``
    and ``kept`` add to an entry's pieces the slices that list the names at
    some sorted positions, or all others, closed on the bracket's line, and
    then the entry's next ``head``; a list drops its first separator."""

    def __init__(self, names: list[str], depth: int | None):
        indent = "\n" + "  " * (depth or 0)
        self.lead, self.close = (2, "") if depth is None else (1, indent[:-2])
        self.items = [(", " if depth is None else "," + indent) + name for name in names]
        self.firsts = [item[self.lead:] for item in self.items]
        self.text = "".join(self.items)
        self.at = list(itertools.accumulate(map(len, self.items), initial=0))
        self.runs = {}  # (start, end, lead) -> the slice: entries share most runs

    def picked(self, pieces: list[str], cuts: list[int], head: str) -> list[str]:
        if cuts:
            pieces.append(self.firsts[cuts[0]])
            pieces += map(self.items.__getitem__, cuts[1:])
            pieces.append(self.close)
        pieces.append(head)
        return pieces

    def kept(self, pieces: list[str], cuts: list[int], head: str) -> list[str]:
        text, at, runs, start, lead = self.text, self.at, self.runs, 0, self.lead
        for cut in [*cuts, len(self.items)]:
            if start < cut:
                run = runs.get((start, cut, lead))
                if run is None:
                    run = runs[start, cut, lead] = text[at[start] + lead:at[cut]]
                pieces.append(run)
                lead = 0
            start = cut + 1
        if not lead:  # something is listed
            pieces.append(self.close)
        pieces.append(head)
        return pieces


def _repairs_report(args, inputs: _Inputs, names: list[str], removed) -> str:
    """The report of deletion repairs, one entry per sorted list of the
    positions of the ``names`` it removes, in the order given."""
    slices = _Slices(names, 5 if args.json else None)
    start, middle, end = (
        ("{" + _KEY + '"kept": [', "]," + _KEY + '"removed": [', "]" + _ITEM + "}") if args.json
        else ("repair: keep {", "}  remove {", "}")
    )
    entries = _Names(slices.picked(slices.kept([start], cuts, middle), cuts, end) for cuts in removed)
    return _render(args, inputs, {"semantics": args.semantics, "repairs": entries}, map("".join, entries))


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_causes(args, inputs: _Inputs, d, q) -> str:
    result, lines = _cause_listing(causality.responsibilities(d, q).items(), "no causes")
    return _render(args, inputs, result, lines)


def _cmd_responsibility(args, inputs: _Inputs, d, q) -> str:
    t = parse_fact(args.tuple)
    rho = causality.responsibility(d, q, t)
    result = {"fact": format_fact(t), "responsibility": _fraction_json(rho)}
    return _render(args, inputs, result, [str(rho)])


def _cmd_mrc(args, inputs: _Inputs, d, q) -> str:
    top, value = causality.most_responsible_causes(d, q)
    names = _sorted_facts(top)
    result = {"causes": names, "responsibility": _fraction_json(value)}
    lines = [f"{name}  {value!s}" for name in names] or ["no causes"]
    return _render(args, inputs, result, lines)


def _cmd_check_contingency(args, inputs: _Inputs, d, q) -> str:
    t = parse_fact(args.tuple)
    gamma = frozenset(parse_fact_list(args.gamma))
    verdict = causality.check_minimal_contingency(d, q, t, gamma)
    result = {
        "fact": format_fact(t),
        "contingency": _sorted_facts(gamma),
        "minimal_contingency": verdict,
    }
    return _render(args, inputs, result, [str(verdict).lower()])


# CPython's default limit on the digits of an int read from or written as text
_MAX_DIGITS = 4300


def _threshold(text: str) -> Fraction:
    """``text`` as a fraction.  Its size is decided on the text first:
    ``Fraction`` would compute ``10**exponent`` however large, and ``str``
    refuses a number past ``_MAX_DIGITS`` digits, so a numerator or
    denominator that would have more, as written, is malformed."""
    try:
        if "/" not in text:  # a ratio's terms are ints, which hold the limit themselves
            mantissa, e, exponent = text.lower().partition("e")
            whole, _, places = mantissa.partition(".")
            shift, places = int(exponent) if e else 0, sum(map(str.isdigit, places))
            if (sum(map(str.isdigit, whole)) + places + max(shift, 0) > _MAX_DIGITS
                    or places + max(-shift, 0) >= _MAX_DIGITS):  # 10**n has n + 1 digits
                raise ValueError(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SemanticError(f"malformed threshold {text!r}") from exc


def _cmd_rdp(args, inputs: _Inputs, d, q) -> str:
    t = parse_fact(args.tuple)
    threshold = _threshold(args.threshold)
    verdict = causality.rdp_decide(d, q, t, threshold)
    result = {
        "fact": format_fact(t),
        "threshold": str(threshold),
        "exceeds": verdict,
    }
    return _render(args, inputs, result, [str(verdict).lower()])


def _cmd_repairs(args, inputs: _Inputs, d, sigma) -> str:
    if args.priority and args.semantics != "go":
        raise SemanticError("--priority applies to --semantics go only")
    if args.semantics == "null":
        return _null_repairs_report(args, inputs, d, sigma)
    priority = inputs.priorities() if args.priority else None
    solution = repairs(d, sigma, args.semantics, args.max_enum, priority)
    names, position, _ = _named(d.sorted_facts, args.json)
    # the vertices sort by ``fact_key`` too, so their positions increase
    return _repairs_report(args, inputs, names, solution.indexes([position[v] for v in solution.vertices]))


def _null_repairs_report(args, inputs: _Inputs, d, sigma) -> str:
    """One entry per null repair, by its changes: those, and its facts cut
    from ``d``'s and every nulled version less its originals and the
    versions it lacks.  Each change and each fact is written once, and
    each repair's change set is applied once."""
    solution = preferences.null_repairs(d, sigma, args.max_enum)
    shown = list(map(str, solution.vertices))
    order = sorted(range(len(shown)), key=shown.__getitem__)  # the changes in name order
    changes = list(map(solution.vertices.__getitem__, order))
    apply = preferences.change_applier(d)
    # each diff lists its changes' places in name order, the diffs in report order
    applied = [(diff, apply(map(changes.__getitem__, diff)))
               for diff in solution.indexes({i: r for r, i in enumerate(order)})]
    every = frozenset().union(*(v.values() for _, v in applied)) - d.facts
    names, position, name = _named(sorted(d.facts | every, key=fact_key), args.json)
    slices, diffs = (_Slices(x, 5 if args.json else None) for x in (names, [name(shown[i]) for i in order]))
    versions = frozenset(map(position.__getitem__, every))  # a repair's cuts, toggled by its own facts
    rows = []
    for diff, v in applied:
        new = frozenset(v.values())  # less its originals, plus its nulled facts
        rows.append((diff, sorted(versions.symmetric_difference(
            map(position.__getitem__, itertools.chain(v.keys() - new, new - d.facts))))))
    if args.json:
        start, middle, end = "{" + _KEY + '"diff": [', "]," + _KEY + '"facts": [', "]" + _ITEM + "}"
        entries = _Names(slices.kept(diffs.picked([start], diff, middle), cuts, end) for diff, cuts in rows)
    else:
        entries = _Names(diffs.picked(slices.kept(["repair: {"], cuts, "}  diff {"), diff, "}")
                         for diff, cuts in rows)
    return _render(args, inputs, {"semantics": "null", "repairs": entries}, map("".join, entries))


def _cmd_cqa(args, inputs: _Inputs, d, sigma) -> str:
    atoms = parse_fact_list(args.atoms)
    if not atoms:
        raise SemanticError("--atoms names no ground atoms")
    verdict = _consistent_answer(d, sigma, atoms, args.semantics)
    result = {
        "atoms": _sorted_facts(atoms),
        "semantics": args.semantics,
        "consistent": verdict,
    }
    return _render(args, inputs, result, [str(verdict).lower()])


def _cmd_diagnose(args, inputs: _Inputs, d, q) -> str:
    problem = diagnosis.build_problem(d, q)
    containing = parse_fact(args.containing) if args.containing else None
    solution = diagnosis.diagnoses(problem, args.kind, containing, args.max_enum)
    names, position, _ = _named(d.sorted_facts, args.json)
    slices = _Slices(names, 4 if args.json else None)
    # the empty conflict of an unexplainable observation is not listed
    listed = {
        "conflicts": [sorted(map(position.__getitem__, e)) for e in problem.conflicts if e],
        "diagnoses": solution.indexes([position[v] for v in solution.vertices]),
    }
    for key, label in (("conflicts", "conflict"), ("diagnoses", "diagnosis")):
        start, end = ("[", "]") if args.json else (label + ": {", "}")
        listed[key] = _Names(slices.picked([start], cuts, end) for cuts in listed[key])
    result = {"kind": args.kind, **listed}
    if args.emit_theory:
        result["theory"] = diagnosis.render_theory(problem).splitlines()
    lines = itertools.chain(map("".join, listed["conflicts"] + listed["diagnoses"]), result.get("theory", ()))
    return _render(args, inputs, result, lines)


def _cmd_preferred_causes(args, inputs: _Inputs, d, q) -> str:
    found = preferences.preferred_causes(d, q, inputs.priorities(), args.max_enum)
    result, lines = _cause_listing(found, "no preferred causes")
    return _render(args, inputs, result, lines)


# ---------------------------------------------------------------------------
# The brute-force oracle, kept apart from the engines it checks


def _cmd_oracle_causes(args, inputs: _Inputs, d, q) -> str:
    scored = oracle.oracle_causes_and_responsibility(d, q).items()
    result, lines = _cause_listing([(t, rho) for t, rho in scored if rho > 0], "no causes")
    return _render(args, inputs, result, lines)


def _cmd_oracle_repairs(args, inputs: _Inputs, d, sigma) -> str:
    kept_sets = oracle.oracle_repairs(d, sigma, args.semantics)
    names, position, _ = _named(d.sorted_facts, args.json)
    return _repairs_report(args, inputs, names, sorted(
        sorted(map(position.__getitem__, d.facts - kept)) for kept in kept_sets))


# ---------------------------------------------------------------------------
# Argument wiring


@functools.cache
def _build_parser() -> _Parser:
    """The full parser, built on the first call and reused after: the one
    definition of help and error text for an argv that names no subcommand
    first.  ``commands`` maps each subcommand to its own parser, which
    ``execute`` hands the words after it."""
    parser = _Parser(prog="causerepair", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = parser.commands = {}

    def common(p, name, run, query=False, enumerates=False):
        """The command's name and handler, the instance, the query (or
        else the constraints); ``--max-enum`` where the handler enumerates."""
        p.set_defaults(command=name, run=run)
        p.add_argument("-i", "--instance", required=True)
        if query:
            p.add_argument("-q", "--query", required=True)
        else:
            p.add_argument("-c", "--constraints", required=True)
        p.add_argument("--json", action="store_true")
        if enumerates:
            p.add_argument("--max-enum", type=_enumeration_cap, default=None)
        return p

    def command(name, help, run, **options):
        commands[name] = p = sub.add_parser(name, help=help)
        return common(p, name, run, **options)

    command("causes", "actual causes with responsibilities", _cmd_causes, query=True)

    p = command("responsibility", "responsibility of one fact", _cmd_responsibility, query=True)
    p.add_argument("--tuple", required=True)

    command("mrc", "most responsible causes", _cmd_mrc, query=True)

    p = command("check-contingency", "minimal contingency test", _cmd_check_contingency, query=True)
    p.add_argument("--tuple", required=True)
    p.add_argument("--gamma", default="")

    p = command("rdp", "responsibility threshold decision", _cmd_rdp, query=True)
    p.add_argument("--tuple", required=True)
    p.add_argument("--threshold", required=True)

    p = command("repairs", "repairs under a chosen semantics", _cmd_repairs, enumerates=True)
    p.add_argument("--semantics", default="s", choices=["s", "c", "go", "endo", "null"])
    p.add_argument("--priority")

    p = command("cqa", "consistent answers for ground atoms", _cmd_cqa)
    p.add_argument("--atoms", required=True)
    p.add_argument("--semantics", default="s", choices=["s", "c"])

    p = command("diagnose", "conflicts and minimal diagnoses", _cmd_diagnose, query=True, enumerates=True)
    p.add_argument("--kind", default="s", choices=["s", "c"])
    p.add_argument("--containing")
    p.add_argument("--emit-theory", action="store_true")

    p = command("preferred-causes", "causes under a causal priority", _cmd_preferred_causes,
                query=True, enumerates=True)
    p.add_argument("--priority", required=True)

    # the oracle's parser hands its subcommand's words on, so they are parsed twice
    commands["oracle"] = p = sub.add_parser("oracle", help="brute-force reference results")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)
    common(oracle_sub.add_parser("causes"), "oracle.causes", _cmd_oracle_causes, query=True)
    p = common(oracle_sub.add_parser("repairs"), "oracle.repairs", _cmd_oracle_repairs)
    p.add_argument("--semantics", default="s", choices=["s", "c", "endo"])

    return parser


def execute(argv: list[str]) -> tuple[int, str, str]:
    """Run one invocation; returns (exit code, stdout text, stderr text).
    The instance is parsed first, then the query or the constraints, and
    both are handed to the subcommand's handler."""
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    try:
        args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
    except _Exit as exc:
        return exc.args
    args.raw_argv = list(argv)
    inputs = _Inputs(args)
    try:
        d = inputs.instance()
        program = inputs.query() if "query" in args else inputs.constraints()
        return 0, args.run(args, inputs, d, program), ""
    except (ParseError, OSError) as exc:
        return USAGE_ERROR, "", f"error: {exc}\n"
    except SemanticError as exc:
        return SEMANTIC_ERROR, "", f"error: {exc}\n"
    except (CapExceededError, BoundExceededError) as exc:
        return CAP_ERROR, "", f"error: {exc}\n"


def main() -> None:
    code, out, err = execute(sys.argv[1:])
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    sys.exit(code)


if __name__ == "__main__":
    main()
