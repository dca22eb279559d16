r"""Knowledge base: parsing, interning, hierarchy closure, statistics, codec.

The plain-text format is line oriented:

    class <Name> | subclass <Sub> <Super> | role <Name> | subrole <Sub> <Super>
    numrole <Name> | boolrole <Name> | strrole <Name> | individual <Name>
    instance <Class> <Indiv> | fact <Role> <Subj> <Obj>
    numfact <NumRole> <Indiv> <float> | boolfact <BoolRole> <Indiv> true|false
    strfact <StrRole> <Indiv> "<value>"

A line is split into tokens as ``shlex.split(line, comments=True)`` splits
it: at spaces and tabs, a ``#`` outside quotes starts a comment that runs to
the end of the line, and single or double quotes, or a backslash, keep a
name or value with spaces in one token (``strfact colour car1 "dark red"``).
A line of printable ASCII, spaces and tabs with no quote, backslash or
``#`` splits the same way with ``str.split``. The reader cuts a text into
slices of whole lines, about 16 KiB each, and splits a slice with no other
character by ``str.split`` alone, so only the slices with a line that needs
``shlex`` pay for the per-line check. Any line ending reads alike: "\r\n"
and every other boundary ``str.splitlines`` honours is read as "\n", so
lines are numbered as ``str.splitlines`` numbers them, across slices, and
each error names its line.

Names must be declared before use; ids are dense and assigned in declaration
order, so a file always interns to the same ids. While a KB is open, each
table of rows is one insertion-ordered dict from row to None, which keeps
the first copy of a repeated row in its place. After ``materialize`` the
class membership and role assertion tables are closed under the subclass
and subrole hierarchies, each table of rows is the list of its rows, and
all of them are mirrored into numpy arrays for the evaluation engine.

Two binary forms share one table layout, written by one writer and read by
one reader, which keeps the first copy of a repeated row as the ``add_*``
methods do: ``serialize_kb``'s blob, which carries the names as well, and
the sealed form of a materialized KB (``serialize_sealed``), which carries
only the namespace sizes and the tables. A materialized KB decodes from
either form through one builder into numpy columns alone, with ``None`` for
its rows; only an open blob decodes to rows.
"""

from __future__ import annotations

import re
import shlex
import struct
import zlib
from dataclasses import dataclass, field
from itertools import chain, count, repeat
from typing import NamedTuple

import numpy as np

__all__ = [
    "Interner",
    "SymbolTable",
    "KnowledgeBase",
    "ExampleSet",
    "KbStatistics",
    "KbError",
    "KbParseError",
    "KbCodecError",
    "parse_kb",
    "parse_examples",
    "materialize",
    "compute_statistics",
    "serialize_kb",
    "deserialize_kb",
    "serialize_sealed",
    "deserialize_sealed",
]


class KbError(ValueError):
    pass


class KbParseError(KbError):
    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class KbCodecError(KbError):
    pass


class Interner:
    """Dense, insertion-ordered name <-> id map."""

    __slots__ = ("_ids", "_names")

    def __init__(self, names=()):
        self._names: list[str] = list(dict.fromkeys(names))
        self._ids: dict[str, int] = {n: i for i, n in enumerate(self._names)}

    def intern(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = len(self._names)
            self._ids[name] = ident
            self._names.append(name)
        return ident

    def id_of(self, name: str) -> int | None:
        return self._ids.get(name)

    def name_of(self, ident: int) -> str:
        return self._names[ident]

    @property
    def names(self) -> list[str]:
        return self._names

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __eq__(self, other) -> bool:
        return isinstance(other, Interner) and self._names == other._names

    def __repr__(self) -> str:
        return f"Interner({self._names!r})"


# A SymbolTable's namespaces but its string values, in the order a blob
# carries their names.
_NAMESPACES = ("class_names", "role_names", "num_role_names", "bool_role_names",
               "str_role_names", "individual_names")


class SymbolTable:
    """All interned namespaces of one knowledge base."""

    __slots__ = (*_NAMESPACES, "string_values")

    def __init__(self):
        for namespace in _NAMESPACES:
            setattr(self, namespace, Interner())
        # One value table per string role, indexed by the role id.
        self.string_values: list[Interner] = []

    @property
    def num_individuals(self) -> int:
        return len(self.individual_names)

    def __eq__(self, other) -> bool:
        return isinstance(other, SymbolTable) and all(
            getattr(self, n) == getattr(other, n) for n in self.__slots__)


_SEALED = "a materialized knowledge base takes no more rows"
# A KB's tables of rows per role, all its assertion rows, and the numpy
# mirrors of a materialized KB's rows.
_TABLES = ("role_assertions", "numeric_assertions", "boolean_assertions",
           "string_assertions")
_ROWS = ("class_members", *_TABLES)
_MIRRORS = ("member_masks", "role_subs", "role_objs", "num_subs", "num_vals",
            "bool_subs", "bool_vals", "str_subs", "str_vals")


class KnowledgeBase:
    """Assertion tables plus, after materialization, their numpy mirrors.

    The structural core (sets and tables below) is what equality and the
    tests see while the KB is open; the numpy arrays make evaluation fast
    and are rebuilt deterministically from the core. While the KB is open
    each class's members are a set and each other table (the hierarchy
    edges and every role's rows) an insertion-ordered dict from row to
    None, so storing a row that is there already keeps its first copy in
    its place; ``materialize`` turns each such table into the list of its
    rows, since a KB that takes no more rows needs no dict. A sealed
    (materialized) KB reads its counts, its assertion counts and everything
    a search reads from the arrays, and compares its arrays and hierarchy
    edges, so a sealed KB may hold only them: a decoded one
    (``deserialize_sealed``, or ``deserialize_kb`` of a materialized blob)
    has ``None`` for its rows (``class_members`` and the ``*_assertions``
    tables) and keeps only its hierarchy edges as lists.
    """

    def __init__(self):
        self.num_individuals = 0
        self.class_members: list[set[int]] = []
        self.subclass_edges: dict[tuple[int, int], None] = {}
        self.role_assertions: list[dict[tuple[int, int], None]] = []
        self.subrole_edges: dict[tuple[int, int], None] = {}
        self.numeric_assertions: list[dict[tuple[int, float], None]] = []
        self.boolean_assertions: list[dict[tuple[int, bool], None]] = []
        self.string_assertions: list[dict[tuple[int, int], None]] = []
        self.materialized = False
        # numpy mirrors, populated by materialize().
        self.member_masks: list[np.ndarray] = []
        self.role_subs: list[np.ndarray] = []
        self.role_objs: list[np.ndarray] = []
        self.num_subs: list[np.ndarray] = []
        self.num_vals: list[np.ndarray] = []
        self.bool_subs: list[np.ndarray] = []
        self.bool_vals: list[np.ndarray] = []
        self.str_subs: list[np.ndarray] = []
        self.str_vals: list[np.ndarray] = []
        self.direct_subclasses: list[list[int]] = []
        self.direct_superclasses: list[list[int]] = []
        self.direct_subroles: list[list[int]] = []

    # -- construction -------------------------------------------------------

    def add_class(self) -> None:
        if self.materialized:
            raise KbError(_SEALED)
        self.class_members.append(set())

    def add_role(self) -> None:
        if self.materialized:
            raise KbError(_SEALED)
        self.role_assertions.append({})

    def add_num_role(self) -> None:
        if self.materialized:
            raise KbError(_SEALED)
        self.numeric_assertions.append({})

    def add_bool_role(self) -> None:
        if self.materialized:
            raise KbError(_SEALED)
        self.boolean_assertions.append({})

    def add_str_role(self) -> None:
        if self.materialized:
            raise KbError(_SEALED)
        self.string_assertions.append({})

    def add_individual(self) -> None:
        if self.materialized:
            raise KbError(_SEALED)
        self.num_individuals += 1

    def add_instance(self, class_id: int, indiv: int) -> None:
        if self.materialized:
            raise KbError(_SEALED)
        self.class_members[class_id].add(indiv)

    def add_subclass(self, sub: int, sup: int) -> None:
        if self.materialized:
            raise KbError(_SEALED)
        self.subclass_edges[sub, sup] = None

    def add_subrole(self, sub: int, sup: int) -> None:
        if self.materialized:
            raise KbError(_SEALED)
        self.subrole_edges[sub, sup] = None

    def add_fact(self, role: int, sub: int, obj: int) -> None:
        if self.materialized:
            raise KbError(_SEALED)
        self.role_assertions[role][sub, obj] = None

    def add_num_fact(self, role: int, sub: int, val: float) -> None:
        if self.materialized:
            raise KbError(_SEALED)
        self.numeric_assertions[role][sub, val] = None

    def add_bool_fact(self, role: int, sub: int, val: bool) -> None:
        if self.materialized:
            raise KbError(_SEALED)
        self.boolean_assertions[role][sub, val] = None

    def add_str_fact(self, role: int, sub: int, val_index: int) -> None:
        if self.materialized:
            raise KbError(_SEALED)
        self.string_assertions[role][sub, val_index] = None

    # -- derived counts ------------------------------------------------------

    @property
    def num_classes(self) -> int:
        return len(self.member_masks if self.materialized else self.class_members)

    @property
    def num_roles(self) -> int:
        return len(self.role_subs if self.materialized else self.role_assertions)

    @property
    def num_numeric_roles(self) -> int:
        return len(self.num_subs if self.materialized else self.numeric_assertions)

    @property
    def num_boolean_roles(self) -> int:
        return len(self.bool_subs if self.materialized else self.boolean_assertions)

    @property
    def num_string_roles(self) -> int:
        return len(self.str_subs if self.materialized else self.string_assertions)

    def assertion_counts(self) -> tuple[int, int, int]:
        """(class assertions, role assertions, concrete role assertions)."""
        m = vars(self) if self.materialized else _row_mirrors(self)
        return (sum(map(np.count_nonzero, m["member_masks"])),
                sum(map(len, m["role_subs"])),
                sum(map(len, m["num_subs"] + m["bool_subs"] + m["str_subs"])))

    def __eq__(self, other) -> bool:
        """Rows while open, each table compared as a dict, so the order of
        its rows does not matter; once materialized, numpy columns, which
        are all a sealed KB holds. Both compare the hierarchy edges."""
        if not (isinstance(other, KnowledgeBase)
                and self.materialized == other.materialized
                and self.num_individuals == other.num_individuals
                and self.subclass_edges == other.subclass_edges
                and self.subrole_edges == other.subrole_edges):
            return False
        if not self.materialized:
            return all(getattr(self, n) == getattr(other, n) for n in _ROWS)
        pairs = ((getattr(self, n), getattr(other, n)) for n in _MIRRORS)
        return all(len(a) == len(b) and all(map(np.array_equal, a, b))
                   for a, b in pairs)


@dataclass
class ExampleSet:
    """Positive/negative example masks over the individual id space.

    The masks are made read-only at construction, so the counts computed
    there stay true.
    """

    num_individuals: int
    positives: np.ndarray
    negatives: np.ndarray
    pos_count: int = field(init=False, repr=False)
    neg_count: int = field(init=False, repr=False)

    def __post_init__(self):
        self.positives.flags.writeable = False
        self.negatives.flags.writeable = False
        self.pos_count = int(np.count_nonzero(self.positives))
        self.neg_count = int(np.count_nonzero(self.negatives))

    @classmethod
    def from_ids(cls, num_individuals: int, pos_ids, neg_ids) -> "ExampleSet":
        pos = np.zeros(num_individuals, dtype=bool)
        neg = np.zeros(num_individuals, dtype=bool)
        pos[list(pos_ids)] = True
        neg[list(neg_ids)] = True
        return cls(num_individuals, pos, neg)

    def pos_ids(self) -> list[int]:
        return [int(i) for i in np.nonzero(self.positives)[0]]

    def neg_ids(self) -> list[int]:
        return [int(i) for i in np.nonzero(self.negatives)[0]]

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExampleSet)
                and self.num_individuals == other.num_individuals
                and np.array_equal(self.positives, other.positives)
                and np.array_equal(self.negatives, other.negatives))


@dataclass
class KbStatistics:
    """Search-guiding numbers derived from a materialized knowledge base."""

    max_fillers: list[int] = field(default_factory=list)
    max_fillers_inverse: list[int] = field(default_factory=list)
    numeric_boundaries: list[list[float]] = field(default_factory=list)
    string_domains: list[list[int]] = field(default_factory=list)
    top_level_classes: list[int] = field(default_factory=list)
    leaf_classes: list[int] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Text parsing

# A line of printable ASCII, spaces and tabs with no quote, backslash or
# ``#``: shlex splits such a line at its spaces and tabs only, as str.split
# does. A slice of lines with no character outside the class but "\n" is
# plain line by line.
_PLAIN_CLASS = r" \t!$-&(-\[\]-~"
_PLAIN_LINE = re.compile(f"[{_PLAIN_CLASS}]*")
_NOT_PLAIN = re.compile(f"[^\n{_PLAIN_CLASS}]")
# The line boundaries str.splitlines honours besides "\n", "\r" and "\r\n".
_OTHER_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                 "\u2029")
# The characters of text the reader cuts into one slice, give or take the
# rest of the line the cut falls in. Parsing is as fast at 16 KiB as at
# 64 KiB, and a slice's lines, alive while it is parsed, take a quarter of
# the memory.
_SLICE_CHARS = 1 << 14


def _slices(text: str):
    r"""The lines of ``text.splitlines()``, a slice of whole lines at a time.

    Every line boundary that ``str.splitlines`` honours is first rewritten
    to "\n", "\r\n" before a lone "\r", so any line ending reads alike
    and the text is then cut at "\n" alone. Yields, per slice, an iterator
    of ``(lineno, line, tokens)``, which splits a line only when it is
    reached, so an error is raised in line order. A slice with no character
    outside ``_PLAIN_LINE``'s class is split by ``str.split`` alone; any
    other slice goes line by line through ``_split_line``.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for brk in _OTHER_BREAKS:
        text = text.replace(brk, "\n")
    if not text:
        return
    # splitlines has no empty line after a last line end.
    end = len(text) - text.endswith("\n")
    start, lineno = 0, 1
    while True:
        stop = text.find("\n", start + _SLICE_CHARS, end)
        if stop < 0:
            stop = end
        lines = text[start:stop].split("\n")
        tokens = (map(str.split, lines) if _NOT_PLAIN.search(text, start, stop) is None
                  else map(_split_line, lines, count(lineno)))
        yield zip(count(lineno), lines, tokens)
        if stop == end:
            return
        lineno += len(lines)
        start = stop + 1


def _split_line(line: str, lineno: int) -> list[str]:
    if _PLAIN_LINE.fullmatch(line):
        return line.split()
    try:
        return shlex.split(line, comments=True)
    except ValueError as exc:
        raise KbParseError(f"syntax error: {exc}", lineno) from None


def _declare(declared: dict[str, str], individuals: dict[str, int], name: str,
             kind: str, lineno: int) -> bool:
    """Check that ``name`` is not declared as another kind, and record it;
    return whether it is new.

    ``declared`` maps every name declared as something other than an
    individual to its kind, and ``individuals`` each individual to its id.
    """
    prior = "individual" if name in individuals else declared.get(name)
    if prior is None:
        declared[name] = kind
        return True
    if prior != kind:
        raise KbParseError(f"{name!r} already declared as {prior}, redeclared as {kind}",
                           lineno)
    return False


# The number of arguments each statement takes, as its error states it.
_ARITY = {**dict.fromkeys(("class", "role", "numrole", "boolrole", "strrole",
                           "individual"), 1),
          **dict.fromkeys(("subclass", "subrole", "instance"), 2),
          **dict.fromkeys(("fact", "numfact", "boolfact", "strfact"), 3)}


def _bad_statement(tokens: list[str], lineno: int) -> KbParseError:
    """The error for an unknown statement, or one with a wrong argument count."""
    arity = _ARITY.get(tokens[0])
    if arity is None:
        return KbParseError(f"unknown statement {tokens[0]!r}", lineno)
    return KbParseError(f"{tokens[0]!r} expects {arity} argument(s), got {len(tokens) - 1}",
                        lineno)


def _undeclared(lineno: int, *lookups) -> KbParseError:
    """The error for the first of ``lookups``, flat ``(table, name, kind)``
    triples, whose name its table does not hold."""
    it = iter(lookups)
    for table, name, kind in zip(it, it, it):
        if name not in table:
            return KbParseError(f"undeclared {kind} {name!r}", lineno)


def parse_kb(text: str) -> tuple[SymbolTable, KnowledgeBase]:
    """Parse the plain-text format into an unmaterialized knowledge base.

    The text is read a slice of whole lines at a time (``_slices``): a plain
    slice is tokenized by ``str.split`` in C, any other line by line through
    ``_split_line``. One loop applies every statement, with its checks, in
    one branch per statement, the most frequent first; a bad line raises
    where it is found, so errors come in line order: a line's argument
    count first, then its names left to right, then its value.
    """
    st = SymbolTable()
    kb = KnowledgeBase()
    declared: dict[str, str] = {}  # every name but the individuals (_declare)
    classes = st.class_names._ids
    roles = st.role_names._ids
    num_roles = st.num_role_names._ids
    bool_roles = st.bool_role_names._ids
    str_roles = st.str_role_names._ids
    individuals = st.individual_names._ids
    numbers: dict[str, float] = {}  # one float object per distinct text
    for lineno, _, tokens in chain.from_iterable(_slices(text)):
        n = len(tokens)
        if not n:
            continue
        stmt = tokens[0]
        if stmt == "instance" and n == 3:
            cid = classes.get(tokens[1])
            iid = individuals.get(tokens[2])
            if cid is None or iid is None:
                raise _undeclared(lineno, classes, tokens[1], "class",
                                  individuals, tokens[2], "individual")
            kb.add_instance(cid, iid)
        elif stmt == "individual" and n == 2:
            name = tokens[1]
            if name in declared:
                _declare(declared, individuals, name, "individual", lineno)
            if name not in individuals:
                st.individual_names.intern(name)
                kb.add_individual()
        elif stmt == "fact" and n == 4:
            rid = roles.get(tokens[1])
            sub = individuals.get(tokens[2])
            obj = individuals.get(tokens[3])
            if rid is None or sub is None or obj is None:
                raise _undeclared(lineno, roles, tokens[1], "role",
                                  individuals, tokens[2], "individual",
                                  individuals, tokens[3], "individual")
            kb.add_fact(rid, sub, obj)
        elif stmt == "numfact" and n == 4:
            rid = num_roles.get(tokens[1])
            sub = individuals.get(tokens[2])
            if rid is None or sub is None:
                raise _undeclared(lineno, num_roles, tokens[1], "numeric role",
                                  individuals, tokens[2], "individual")
            val = numbers.get(tokens[3])
            if val is None:
                try:
                    val = float(tokens[3])
                except ValueError:
                    raise KbParseError(f"bad number {tokens[3]!r}", lineno) from None
                if val != val:
                    raise KbParseError("NaN is not a valid numeric value", lineno)
                numbers[tokens[3]] = val
            kb.add_num_fact(rid, sub, val)
        elif stmt == "boolfact" and n == 4:
            rid = bool_roles.get(tokens[1])
            sub = individuals.get(tokens[2])
            if rid is None or sub is None:
                raise _undeclared(lineno, bool_roles, tokens[1], "boolean role",
                                  individuals, tokens[2], "individual")
            if tokens[3] not in ("true", "false"):
                raise KbParseError(f"expected true or false, got {tokens[3]!r}", lineno)
            kb.add_bool_fact(rid, sub, tokens[3] == "true")
        elif stmt == "class" and n == 2:
            if _declare(declared, individuals, tokens[1], "class", lineno):
                st.class_names.intern(tokens[1])
                kb.add_class()
        elif stmt == "subclass" and n == 3:
            sub = classes.get(tokens[1])
            sup = classes.get(tokens[2])
            if sub is None or sup is None:
                raise _undeclared(lineno, classes, tokens[1], "class",
                                  classes, tokens[2], "class")
            kb.add_subclass(sub, sup)
        elif stmt == "role" and n == 2:
            if _declare(declared, individuals, tokens[1], "role", lineno):
                st.role_names.intern(tokens[1])
                kb.add_role()
        elif stmt == "subrole" and n == 3:
            sub = roles.get(tokens[1])
            sup = roles.get(tokens[2])
            if sub is None or sup is None:
                raise _undeclared(lineno, roles, tokens[1], "role",
                                  roles, tokens[2], "role")
            kb.add_subrole(sub, sup)
        elif stmt == "numrole" and n == 2:
            if _declare(declared, individuals, tokens[1], "numeric role", lineno):
                st.num_role_names.intern(tokens[1])
                kb.add_num_role()
        elif stmt == "boolrole" and n == 2:
            if _declare(declared, individuals, tokens[1], "boolean role", lineno):
                st.bool_role_names.intern(tokens[1])
                kb.add_bool_role()
        elif stmt == "strrole" and n == 2:
            if _declare(declared, individuals, tokens[1], "string role", lineno):
                st.str_role_names.intern(tokens[1])
                st.string_values.append(Interner())
                kb.add_str_role()
        elif stmt == "strfact" and n == 4:
            rid = str_roles.get(tokens[1])
            sub = individuals.get(tokens[2])
            if rid is None or sub is None:
                raise _undeclared(lineno, str_roles, tokens[1], "string role",
                                  individuals, tokens[2], "individual")
            kb.add_str_fact(rid, sub, st.string_values[rid].intern(tokens[3]))
        else:
            raise _bad_statement(tokens, lineno)
    return st, kb


def parse_examples(text: str, st: SymbolTable) -> ExampleSet:
    """Parse ``+ name`` / ``- name`` lines into example masks."""
    pos: set[int] = set()
    neg: set[int] = set()
    for lineno, raw, tokens in chain.from_iterable(_slices(text)):
        if not tokens:
            continue
        if len(tokens) != 2 or tokens[0] not in ("+", "-"):
            raise KbParseError(f"expected '+ <name>' or '- <name>', got {raw.strip()!r}", lineno)
        iid = st.individual_names.id_of(tokens[1])
        if iid is None:
            raise KbParseError(f"unknown individual {tokens[1]!r}", lineno)
        target = pos if tokens[0] == "+" else neg
        other = neg if tokens[0] == "+" else pos
        if iid in other:
            raise KbParseError(f"conflicting example {tokens[1]!r} (listed as + and -)", lineno)
        target.add(iid)
    if not pos:
        raise KbError("no positive examples")
    if not neg:
        raise KbError("no negative examples")
    return ExampleSet.from_ids(st.num_individuals, pos, neg)


# ---------------------------------------------------------------------------
# Materialization (hierarchy closure) and statistics

def _bottom_up(n: int, edges: list[tuple[int, int]], what: str,
               names=None) -> tuple[list[int], list[list[int]]]:
    """The nodes ordered so that each comes before all of its ancestors, and
    each node's direct supers; raises on cycles.

    A depth-first walk along the super edges with an explicit stack, so a
    hierarchy of any depth is ordered without recursion. A node is finished
    after all of its supers, so the reversed finishing order is bottom-up.
    """
    direct: list[list[int]] = [[] for _ in range(n)]
    for sub, sup in edges:
        direct[sub].append(sup)
    state = [0] * n  # 0 unvisited, 1 on the path, 2 finished
    finished: list[int] = []
    for start in range(n):
        if state[start]:
            continue
        state[start] = 1
        path = [start]  # the nodes being walked, outermost first
        pending = [iter(direct[start])]  # each path node's supers still to walk
        while path:
            for sup in pending[-1]:
                if state[sup] == 1:
                    cycle = path[path.index(sup):] + [sup]
                    if names is not None:
                        cycle_str = " -> ".join(names.name_of(c) for c in cycle)
                    else:
                        cycle_str = " -> ".join(str(c) for c in cycle)
                    raise KbError(f"cycle in {what} hierarchy: {cycle_str}")
                if state[sup] == 0:
                    state[sup] = 1
                    path.append(sup)
                    pending.append(iter(direct[sup]))
                    break
            else:  # every super of the innermost node is finished
                node = path.pop()
                pending.pop()
                state[node] = 2
                finished.append(node)
    finished.reverse()
    return finished, direct


def materialize(kb: KnowledgeBase, st: SymbolTable | None = None) -> KnowledgeBase:
    """Close class memberships and role assertions under the hierarchies.

    Mutates and returns ``kb``. Idempotent: a second call is a no-op.
    Raises ``KbError`` if either hierarchy has a cycle.

    Each class passes its members, its own and those its subclasses passed
    up to it, to its direct superclasses, bottom-up; roles pass their pairs
    the same way. The work follows the edges of the hierarchy, so a deep
    chain costs no more than its closed memberships.
    """
    if kb.materialized:
        return kb

    order, supers = _bottom_up(kb.num_classes, kb.subclass_edges, "subclass",
                               st.class_names if st else None)
    for cid in order:
        members = kb.class_members[cid]
        if not members:
            continue
        for sup in supers[cid]:
            kb.class_members[sup] |= members

    order, supers = _bottom_up(kb.num_roles, kb.subrole_edges, "subrole",
                               st.role_names if st else None)
    for rid in order:
        pairs = kb.role_assertions[rid]
        if not pairs:
            continue
        for sup in supers[rid]:
            kb.role_assertions[sup] |= pairs

    _seal(kb)
    return kb


def _seal(kb: KnowledgeBase,
          mirrors: dict[str, list[np.ndarray]] | None = None) -> None:
    """Mark ``kb`` materialized and set its numpy mirrors: ``mirrors``, or
    else those of its rows, once each of its open tables is turned into the
    list of its rows, as a KB that takes no more rows needs no dict."""
    kb.materialized = True
    if mirrors is None:
        kb.subclass_edges = list(kb.subclass_edges)
        kb.subrole_edges = list(kb.subrole_edges)
        for name in _TABLES:
            setattr(kb, name, list(map(list, getattr(kb, name))))
        mirrors = _row_mirrors(kb)
    for name, arrays in mirrors.items():
        setattr(kb, name, arrays)
    _index_hierarchies(kb)


def _row_mirrors(kb: KnowledgeBase) -> dict[str, list[np.ndarray]]:
    """The numpy mirrors of ``kb``'s rows, by attribute name."""
    n = kb.num_individuals
    masks = []
    for members in kb.class_members:
        mask = np.zeros(n, dtype=bool)
        mask[np.fromiter(members, dtype=np.intp, count=len(members))] = True
        masks.append(mask)

    def column(tables, at, dtype):
        return [np.fromiter((row[at] for row in rows), dtype=dtype,
                            count=len(rows)) for rows in tables]

    return {"member_masks": masks,
            "role_subs": column(kb.role_assertions, 0, np.int64),
            "role_objs": column(kb.role_assertions, 1, np.int64),
            "num_subs": column(kb.numeric_assertions, 0, np.int64),
            "num_vals": column(kb.numeric_assertions, 1, np.float64),
            "bool_subs": column(kb.boolean_assertions, 0, np.int64),
            "bool_vals": column(kb.boolean_assertions, 1, bool),
            "str_subs": column(kb.string_assertions, 0, np.int64),
            "str_vals": column(kb.string_assertions, 1, np.int64)}


def _index_hierarchies(kb: KnowledgeBase) -> None:
    """Each class's direct subclasses and superclasses, and each role's
    direct subroles, sorted."""
    kb.direct_subclasses = [[] for _ in range(kb.num_classes)]
    kb.direct_superclasses = [[] for _ in range(kb.num_classes)]
    for sub, sup in kb.subclass_edges:
        kb.direct_subclasses[sup].append(sub)
        kb.direct_superclasses[sub].append(sup)
    for lst in kb.direct_subclasses:
        lst.sort()
    for lst in kb.direct_superclasses:
        lst.sort()
    kb.direct_subroles = [[] for _ in range(kb.num_roles)]
    for sub, sup in kb.subrole_edges:
        kb.direct_subroles[sup].append(sub)
    for lst in kb.direct_subroles:
        lst.sort()


def _check_sealed(kb: KnowledgeBase) -> None:
    """Raise ``KbCodecError`` unless sealed ``kb`` is what ``materialize``
    leaves: both hierarchies acyclic, each class's members among its
    superclasses' and each role's pairs among its superroles'. Ids name the
    classes and roles, as a KB without names has only its ids."""
    try:
        _bottom_up(kb.num_classes, kb.subclass_edges, "subclass")
        _bottom_up(kb.num_roles, kb.subrole_edges, "subrole")
    except KbError as exc:
        raise KbCodecError(str(exc)) from None
    masks = kb.member_masks
    for sub, sup in kb.subclass_edges:
        if (masks[sub] > masks[sup]).any():
            raise KbCodecError(f"subclass hierarchy not closed: class {sub} "
                               f"has a member outside its superclass {sup}")

    def pairs(rid: int) -> np.ndarray:
        return _row_keys(kb.role_subs[rid], kb.role_objs[rid])

    for sub, sup in kb.subrole_edges:
        if not np.isin(pairs(sub), pairs(sup)).all():
            raise KbCodecError(f"subrole hierarchy not closed: role {sub} "
                               f"has a pair outside its superrole {sup}")


def compute_statistics(kb: KnowledgeBase) -> KbStatistics:
    """Max role fillers, numeric value boundaries and hierarchy extremes,
    read from the numpy mirrors and the hierarchy edges only."""
    if not kb.materialized:
        raise KbError("statistics require a materialized knowledge base")
    stats = KbStatistics()
    # The most pairs one subject has, and the most one object has.
    for subs, objs in zip(kb.role_subs, kb.role_objs):
        stats.max_fillers.append(int(np.bincount(subs).max(initial=0)))
        stats.max_fillers_inverse.append(int(np.bincount(objs).max(initial=0)))
    for vals in kb.num_vals:
        # The sort behind return_index is stable, so of equal values, such as
        # -0.0 and 0.0, the first asserted is kept, as a set of the rows keeps
        # it.
        _, first = np.unique(vals, return_index=True)
        stats.numeric_boundaries.append(vals[first].tolist())
    for vals in kb.str_vals:
        stats.string_domains.append(np.unique(vals).tolist())
    has_super = {sub for sub, _ in kb.subclass_edges}
    has_sub = {sup for _, sup in kb.subclass_edges}
    stats.top_level_classes = [c for c in range(kb.num_classes) if c not in has_super]
    stats.leaf_classes = [c for c in range(kb.num_classes) if c not in has_sub]
    return stats


# ---------------------------------------------------------------------------
# Binary codec
#
# One table layout serves both binary forms, the ``serialize_kb`` blob and
# the sealed form (``serialize_sealed``): each class's sorted members (u32
# count, u32 ids); the subclass edges, each role's pairs and the subrole
# edges (u32 count, u32 id pairs); each numeric role's (u32 id, f64 value),
# each boolean role's (u32 id, u8 0|1) and each string role's (u32 id, u32
# value id) rows, each list prefixed with its u32 count. All big-endian.
# ``_tables_bytes`` writes it from a KB's numpy mirrors and ``_read_tables``
# reads it into record arrays, which each form turns into its own KB.

KB_MAGIC = b"SPKB"
KB_VERSION = 1
# The most individuals a sealed form may declare. It spends no bytes on an
# individual, so this bounds the arrays a count alone makes a reader build:
# it is as many individuals as the names of a serialize_kb blob could name,
# at four bytes or more each, in the largest frame a cluster accepts (2**28
# bytes).
MAX_SEALED_INDIVIDUALS = 1 << 26

_u16 = struct.Struct(">H")
_u32 = struct.Struct(">I")

# The fixed-width records of the payload, big-endian and unpadded.
_ID = np.dtype(">u4")
_PAIR = np.dtype([("a", ">u4"), ("b", ">u4")])
_NUM_ROW = np.dtype([("a", ">u4"), ("b", ">f8")])
_BOOL_ROW = np.dtype([("a", ">u4"), ("b", "u1")])


def _names_bytes(names: list[str]) -> bytes:
    raws = [name.encode("utf-8") for name in names]
    return _u32.pack(len(raws)) + b"".join(
        chain.from_iterable(zip(map(_u32.pack, map(len, raws)), raws)))


def _rows_bytes(rows: list[tuple], dtype: np.dtype) -> bytes:
    """u32 count, then the rows as records of ``dtype``."""
    return _u32.pack(len(rows)) + np.array(rows, dtype=dtype).tobytes()


def _columns_bytes(dtype: np.dtype, a: np.ndarray, b: np.ndarray) -> bytes:
    """u32 count, then the records of ``dtype`` whose fields hold ``a`` and
    ``b``."""
    records = np.empty(len(a), dtype=dtype)
    records["a"] = a
    records["b"] = b
    return _u32.pack(len(records)) + records.tobytes()


def _tables_bytes(kb: KnowledgeBase) -> list[bytes]:
    """``kb``'s table sections, written from its numpy mirrors, or from
    mirrors of its rows while it is not sealed."""
    m = vars(kb) if kb.materialized else _row_mirrors(kb)
    out = []
    for mask in m["member_masks"]:
        ids = np.flatnonzero(mask)
        out.append(_u32.pack(len(ids)) + ids.astype(_ID).tobytes())
    out.append(_rows_bytes(list(kb.subclass_edges), _PAIR))
    out.extend(map(_columns_bytes, repeat(_PAIR), m["role_subs"], m["role_objs"]))
    out.append(_rows_bytes(list(kb.subrole_edges), _PAIR))
    out.extend(map(_columns_bytes, repeat(_NUM_ROW), m["num_subs"], m["num_vals"]))
    out.extend(map(_columns_bytes, repeat(_BOOL_ROW), m["bool_subs"],
                   m["bool_vals"]))
    out.extend(map(_columns_bytes, repeat(_PAIR), m["str_subs"], m["str_vals"]))
    return out


class _Reader:
    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def _need(self, n: int) -> None:
        if self.pos + n > len(self.data):
            raise KbCodecError(f"truncated stream at byte {self.pos}")

    def u8(self) -> int:
        self._need(1)
        self.pos += 1
        return self.data[self.pos - 1]

    def u32(self) -> int:
        self._need(4)
        self.pos += 4
        return _u32.unpack_from(self.data, self.pos - 4)[0]

    def names(self) -> list[str]:
        """u32 count, then per name u32 byte length and UTF-8 bytes."""
        count = self.u32()
        data, pos, end = self.data, self.pos, len(self.data)
        unpack = _u32.unpack_from
        raws = []
        for _ in range(count):
            if pos + 4 > end:
                break
            n = unpack(data, pos)[0]
            if pos + 4 + n > end:
                break
            raws.append(data[pos + 4:pos + 4 + n])
            pos += 4 + n
        self.pos = pos
        if len(raws) < count:
            raise KbCodecError(f"truncated stream at byte {pos}")
        try:
            return [str(raw, "utf-8") for raw in raws]
        except UnicodeDecodeError:
            raise KbCodecError("bad UTF-8 in a name") from None

    def records(self, dtype: np.dtype, count: int | None = None) -> np.ndarray:
        """``count`` records of ``dtype``, or as many as a leading u32 count
        says, in one read."""
        if count is None:
            count = self.u32()
        self._need(count * dtype.itemsize)
        arr = np.frombuffer(self.data, dtype=dtype, count=count, offset=self.pos)
        self.pos += count * dtype.itemsize
        return arr


def _check_range(a: np.ndarray, a_limit: int, a_what: str,
                 b: np.ndarray | None = None, b_limit: int = 0,
                 b_what: str = "") -> None:
    """Raise on the first record, in stream order, whose ``a`` id, or else
    whose ``b`` id, is out of range."""
    bad = a >= a_limit
    if b is not None:
        bad |= b >= b_limit
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if a[i] >= a_limit:
        raise KbCodecError(f"{a_what} id {a[i]} out of range (< {a_limit})")
    raise KbCodecError(f"{b_what} id {b[i]} out of range (< {b_limit})")


def _row_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One number per row ``(a[i], b[i])``, of an id and an id, a flag or a
    float: equal for two rows just when they are, so (i, -0.0) matches
    (i, 0.0), as the ``KnowledgeBase.add_*`` methods match rows."""
    if b.dtype.kind == "f":
        keys = a.astype(np.complex128)  # sorts and compares as (real, imag)
        keys.imag = b
        return keys
    return a.astype(np.uint64) << np.uint64(32) | b.astype(np.uint64)


def _first_copies(rows: np.ndarray) -> np.ndarray:
    """``rows`` less the later copies of a repeated row, as the ``add_*``
    methods keep them. One sort of the keys tells whether any row repeats;
    only a table that has a repeat pays for picking the first copies."""
    keys = _row_keys(rows["a"], rows["b"])
    ordered = np.sort(keys)
    if not (ordered[1:] == ordered[:-1]).any():
        return rows
    _, first = np.unique(keys, return_index=True)  # a stable sort's firsts
    return rows[np.sort(first)]


def _pairs(rows: np.ndarray, a_limit: int, a_what: str, b_limit: int,
           b_what: str) -> np.ndarray:
    _check_range(rows["a"], a_limit, a_what, rows["b"], b_limit, b_what)
    return _first_copies(rows)


class _Tables(NamedTuple):
    """The table sections as read, in order: big-endian record arrays, and
    the hierarchy edges as lists of (sub, super) pairs."""

    members: list[np.ndarray]
    subclass_edges: list[tuple[int, int]]
    roles: list[np.ndarray]
    subrole_edges: list[tuple[int, int]]
    nums: list[np.ndarray]
    bools: list[np.ndarray]
    strs: list[np.ndarray]


def _read_tables(r: _Reader, n_classes: int, n_roles: int, n_nums: int,
                 n_bools: int, value_counts: list[int], n_ind: int) -> _Tables:
    """The table sections at ``r`` of a KB with these numbers of classes,
    roles, numeric and boolean roles, values of each string role and
    individuals. Raise ``KbCodecError`` on the first fault in stream order: a
    truncation, an id out of range, a NaN or a boolean other than 0 or 1.
    Once its checks pass, each table but a class's members, which are a set,
    keeps the first copy of a repeated row (``_first_copies``)."""
    members = []
    for _ in range(n_classes):
        ids = r.records(_ID)
        _check_range(ids, n_ind, "individual")
        members.append(ids)
    subclass_edges = _pairs(r.records(_PAIR), n_classes, "class", n_classes,
                            "class").tolist()
    roles = [_pairs(r.records(_PAIR), n_ind, "individual", n_ind, "individual")
             for _ in range(n_roles)]
    subrole_edges = _pairs(r.records(_PAIR), n_roles, "role", n_roles, "role").tolist()
    nums = []
    for _ in range(n_nums):
        rows = r.records(_NUM_ROW)
        _check_range(rows["a"], n_ind, "individual")
        if np.isnan(rows["b"]).any():
            raise KbCodecError("NaN is not a valid numeric value")
        nums.append(_first_copies(rows))
    bools = []
    for _ in range(n_bools):
        rows = r.records(_BOOL_ROW)
        subs, flags = rows["a"], rows["b"]
        bad = flags > 1
        if bad.any():
            first = int(np.argmax(bad))
            _check_range(subs[:first + 1], n_ind, "individual")  # ids come first
            raise KbCodecError(f"bad boolean {flags[first]}")
        _check_range(subs, n_ind, "individual")
        bools.append(_first_copies(rows))
    strs = [_pairs(r.records(_PAIR), n_ind, "individual", count, "string value")
            for count in value_counts]
    return _Tables(members, subclass_edges, roles, subrole_edges, nums, bools,
                   strs)


def _sealed_kb(t: _Tables, n_ind: int) -> KnowledgeBase:
    """The sealed KB of tables ``t`` over ``n_ind`` individuals: columns and
    hierarchy edges, ``None`` for its rows (see ``KnowledgeBase``). Raises
    ``KbCodecError`` unless it is closed as ``materialize`` leaves it."""
    kb = KnowledgeBase()
    kb.num_individuals = n_ind
    kb.class_members = kb.role_assertions = None
    kb.numeric_assertions = kb.boolean_assertions = kb.string_assertions = None
    kb.subclass_edges, kb.subrole_edges = t.subclass_edges, t.subrole_edges
    mirrors = {"member_masks": [np.zeros(n_ind, dtype=bool) for _ in t.members]}
    for mask, ids in zip(mirrors["member_masks"], t.members):
        mask[ids] = True
    for tables, subs, vals, dtype in (
            (t.roles, "role_subs", "role_objs", np.int64),
            (t.nums, "num_subs", "num_vals", np.float64),
            (t.bools, "bool_subs", "bool_vals", bool),
            (t.strs, "str_subs", "str_vals", np.int64)):
        mirrors[subs] = [rows["a"].astype(np.int64) for rows in tables]
        mirrors[vals] = [rows["b"].astype(dtype) for rows in tables]
    _seal(kb, mirrors)
    _check_sealed(kb)
    return kb


def _open_kb(t: _Tables, n_ind: int) -> KnowledgeBase:
    """The open KB of tables ``t`` over ``n_ind`` individuals: the tables
    that adding the rows through the ``add_*`` methods builds."""
    kb = KnowledgeBase()
    kb.num_individuals = n_ind
    kb.class_members = [set(ids.tolist()) for ids in t.members]
    kb.subclass_edges = dict.fromkeys(t.subclass_edges)
    kb.subrole_edges = dict.fromkeys(t.subrole_edges)
    kb.role_assertions = [dict.fromkeys(rows.tolist()) for rows in t.roles]
    kb.numeric_assertions = [dict.fromkeys(rows.tolist()) for rows in t.nums]
    kb.boolean_assertions = [dict.fromkeys(zip(rows["a"].tolist(),
                                               (rows["b"] == 1).tolist()))
                             for rows in t.bools]
    kb.string_assertions = [dict.fromkeys(rows.tolist()) for rows in t.strs]
    return kb


def _interner(names: list[str]) -> Interner:
    interner = Interner(names)
    if len(interner) != len(names):
        raise KbCodecError("duplicate name in a namespace")
    return interner


def serialize_kb(kb: KnowledgeBase, st: SymbolTable) -> bytes:
    """Binary form: magic, version, payload, trailing CRC32 of payload.

    The payload is the materialized flag (u8); the names of each namespace
    and then each string role's values (u32 count, per name u32 length and
    UTF-8 bytes); then the table sections (see the layout above).
    """
    out = [b"\x01" if kb.materialized else b"\x00"]
    for interner in (*(getattr(st, n) for n in _NAMESPACES), *st.string_values):
        out.append(_names_bytes(interner.names))
    out.extend(_tables_bytes(kb))
    payload = b"".join(out)
    return KB_MAGIC + _u16.pack(KB_VERSION) + payload + _u32.pack(zlib.crc32(payload))


def deserialize_kb(data: bytes) -> tuple[SymbolTable, KnowledgeBase]:
    """Inverse of serialize_kb, validating magic, version and checksum, the
    names, the ids, numbers and booleans of every record, that nothing
    trails the payload and, for a materialized KB, that it is closed as
    ``materialize`` leaves it; each failure raises ``KbCodecError``.

    A materialized blob decodes as the sealed form does (``_sealed_kb``),
    to numpy columns and hierarchy edges with ``None`` for its rows; only an
    open blob decodes to rows. Either way a repeated row is kept once, its
    first copy, as the ``KnowledgeBase.add_*`` methods keep it.
    """
    if len(data) < 10:
        raise KbCodecError("truncated stream: missing header")
    if data[:4] != KB_MAGIC:
        raise KbCodecError(f"bad magic {data[:4]!r}")
    version = _u16.unpack(data[4:6])[0]
    if version != KB_VERSION:
        raise KbCodecError(f"unsupported version {version}")
    payload, crc_bytes = data[6:-4], data[-4:]
    if _u32.unpack(crc_bytes)[0] != zlib.crc32(payload):
        raise KbCodecError("checksum failure")

    r = _Reader(payload)
    materialized = r.u8()
    if materialized not in (0, 1):
        raise KbCodecError(f"bad materialized flag {materialized}")
    st = SymbolTable()
    for namespace in _NAMESPACES:
        setattr(st, namespace, _interner(r.names()))
    st.string_values = [_interner(r.names()) for _ in st.str_role_names.names]
    t = _read_tables(r, len(st.class_names), len(st.role_names),
                     len(st.num_role_names), len(st.bool_role_names),
                     list(map(len, st.string_values)), st.num_individuals)
    if r.pos != len(payload):
        raise KbCodecError(f"{len(payload) - r.pos} trailing payload bytes")
    return st, (_sealed_kb if materialized else _open_kb)(t, st.num_individuals)


def serialize_sealed(kb: KnowledgeBase, st: SymbolTable) -> bytes:
    """The sealed form of materialized ``kb``: what a search reads of it and
    nothing more. u32 counts of its classes, roles, numeric, boolean and
    string roles and individuals; each string role's u32 count of values;
    then the table sections of ``serialize_kb``, written from the numpy
    mirrors. No names, and no header or checksum: the form is meant to
    travel inside a checked frame."""
    if not kb.materialized:
        raise KbError("only a materialized knowledge base has a sealed form")
    counts = [kb.num_classes, kb.num_roles, kb.num_numeric_roles,
              kb.num_boolean_roles, kb.num_string_roles, kb.num_individuals,
              *map(len, st.string_values)]
    return b"".join([np.array(counts, dtype=_ID).tobytes(), *_tables_bytes(kb)])


def deserialize_sealed(data: bytes, pos: int = 0) -> tuple[KnowledgeBase, int]:
    """The sealed KB whose form ``serialize_sealed`` wrote at ``data[pos:]``,
    and the offset just past it. It is built as a materialized
    ``deserialize_kb`` blob's KB is (``_sealed_kb``): numpy columns and
    hierarchy edges, each repeated row kept once. Raises ``KbCodecError`` on
    what ``deserialize_kb`` refuses in the tables, on more than
    ``MAX_SEALED_INDIVIDUALS`` individuals, and on a KB that is not closed
    as ``materialize`` leaves it."""
    r = _Reader(data, pos)
    n_classes, n_roles, n_nums, n_bools, n_strs, n_ind = r.records(_ID, 6).tolist()
    if n_ind > MAX_SEALED_INDIVIDUALS:
        raise KbCodecError(f"{n_ind} individuals exceed the limit of "
                           f"{MAX_SEALED_INDIVIDUALS}")
    value_counts = r.records(_ID, n_strs).tolist()
    t = _read_tables(r, n_classes, n_roles, n_nums, n_bools, value_counts, n_ind)
    return _sealed_kb(t, n_ind), r.pos
