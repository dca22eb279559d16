"""Knowledge base: parsing, interning, hierarchy closure, statistics, codec.

The plain-text format is line oriented (``#`` starts a comment):

    class <Name> | subclass <Sub> <Super> | role <Name> | subrole <Sub> <Super>
    numrole <Name> | boolrole <Name> | strrole <Name> | individual <Name>
    instance <Class> <Indiv> | fact <Role> <Subj> <Obj>
    numfact <NumRole> <Indiv> <float> | boolfact <BoolRole> <Indiv> true|false
    strfact <StrRole> <Indiv> "<value>"

Names must be declared before use; ids are dense and assigned in declaration
order, so a file always interns to the same ids. After ``materialize`` the
class membership and role assertion tables are closed under the subclass and
subrole hierarchies and mirrored into numpy arrays for the evaluation engine.
"""

from __future__ import annotations

import shlex
import struct
import zlib
from dataclasses import dataclass, field
from itertools import chain

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


class SymbolTable:
    """All interned namespaces of one knowledge base."""

    __slots__ = ("class_names", "role_names", "num_role_names", "bool_role_names",
                 "str_role_names", "individual_names", "string_values")

    def __init__(self):
        self.class_names = Interner()
        self.role_names = Interner()
        self.num_role_names = Interner()
        self.bool_role_names = Interner()
        self.str_role_names = Interner()
        self.individual_names = Interner()
        # One value table per string role, indexed by the role id.
        self.string_values: list[Interner] = []

    @property
    def num_individuals(self) -> int:
        return len(self.individual_names)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SymbolTable)
                and self.class_names == other.class_names
                and self.role_names == other.role_names
                and self.num_role_names == other.num_role_names
                and self.bool_role_names == other.bool_role_names
                and self.str_role_names == other.str_role_names
                and self.individual_names == other.individual_names
                and self.string_values == other.string_values)


class KnowledgeBase:
    """Assertion tables plus, after materialization, their numpy mirrors.

    The structural core (sets and lists below) is what equality, the codec
    and the tests see; the numpy arrays exist only to make evaluation fast
    and are rebuilt deterministically from the core.
    """

    def __init__(self):
        self.num_individuals = 0
        self.class_members: list[set[int]] = []
        self.subclass_edges: list[tuple[int, int]] = []
        self.role_assertions: list[list[tuple[int, int]]] = []
        self.subrole_edges: list[tuple[int, int]] = []
        self.numeric_assertions: list[list[tuple[int, float]]] = []
        self.boolean_assertions: list[list[tuple[int, bool]]] = []
        self.string_assertions: list[list[tuple[int, int]]] = []
        self.materialized = False
        # Dedupe sets, maintained alongside the lists.
        self._role_pair_sets: list[set[tuple[int, int]]] = []
        self._edge_set: set[tuple[int, int]] = set()
        self._redge_set: set[tuple[int, int]] = set()
        self._num_sets: list[set[tuple[int, float]]] = []
        self._bool_sets: list[set[tuple[int, bool]]] = []
        self._str_sets: list[set[tuple[int, int]]] = []
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
        self.class_members.append(set())

    def add_role(self) -> None:
        self.role_assertions.append([])
        self._role_pair_sets.append(set())

    def add_num_role(self) -> None:
        self.numeric_assertions.append([])
        self._num_sets.append(set())

    def add_bool_role(self) -> None:
        self.boolean_assertions.append([])
        self._bool_sets.append(set())

    def add_str_role(self) -> None:
        self.string_assertions.append([])
        self._str_sets.append(set())

    def add_individual(self) -> None:
        self.num_individuals += 1

    def add_instance(self, class_id: int, indiv: int) -> None:
        self.class_members[class_id].add(indiv)

    def add_subclass(self, sub: int, sup: int) -> None:
        if (sub, sup) not in self._edge_set:
            self._edge_set.add((sub, sup))
            self.subclass_edges.append((sub, sup))

    def add_subrole(self, sub: int, sup: int) -> None:
        if (sub, sup) not in self._redge_set:
            self._redge_set.add((sub, sup))
            self.subrole_edges.append((sub, sup))

    def add_fact(self, role: int, sub: int, obj: int) -> None:
        if (sub, obj) not in self._role_pair_sets[role]:
            self._role_pair_sets[role].add((sub, obj))
            self.role_assertions[role].append((sub, obj))

    def add_num_fact(self, role: int, sub: int, val: float) -> None:
        if (sub, val) not in self._num_sets[role]:
            self._num_sets[role].add((sub, val))
            self.numeric_assertions[role].append((sub, val))

    def add_bool_fact(self, role: int, sub: int, val: bool) -> None:
        if (sub, val) not in self._bool_sets[role]:
            self._bool_sets[role].add((sub, val))
            self.boolean_assertions[role].append((sub, val))

    def add_str_fact(self, role: int, sub: int, val_index: int) -> None:
        if (sub, val_index) not in self._str_sets[role]:
            self._str_sets[role].add((sub, val_index))
            self.string_assertions[role].append((sub, val_index))

    # -- derived counts ------------------------------------------------------

    @property
    def num_classes(self) -> int:
        return len(self.class_members)

    @property
    def num_roles(self) -> int:
        return len(self.role_assertions)

    def assertion_counts(self) -> tuple[int, int, int]:
        """(class assertions, role assertions, concrete role assertions)."""
        n_class = sum(len(m) for m in self.class_members)
        n_role = sum(len(a) for a in self.role_assertions)
        n_concrete = (sum(len(a) for a in self.numeric_assertions)
                      + sum(len(a) for a in self.boolean_assertions)
                      + sum(len(a) for a in self.string_assertions))
        return n_class, n_role, n_concrete

    def __eq__(self, other) -> bool:
        return (isinstance(other, KnowledgeBase)
                and self.num_individuals == other.num_individuals
                and self.class_members == other.class_members
                and self.subclass_edges == other.subclass_edges
                and self.role_assertions == other.role_assertions
                and self.subrole_edges == other.subrole_edges
                and self.numeric_assertions == other.numeric_assertions
                and self.boolean_assertions == other.boolean_assertions
                and self.string_assertions == other.string_assertions
                and self.materialized == other.materialized)


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

_DECL_KINDS = {
    "class": "class", "role": "role", "numrole": "numeric role",
    "boolrole": "boolean role", "strrole": "string role", "individual": "individual",
}


def _split_line(line: str, lineno: int) -> list[str]:
    try:
        return shlex.split(line, comments=True)
    except ValueError as exc:
        raise KbParseError(f"syntax error: {exc}", lineno) from None


def parse_kb(text: str) -> tuple[SymbolTable, KnowledgeBase]:
    """Parse the plain-text format into an unmaterialized knowledge base."""
    st = SymbolTable()
    kb = KnowledgeBase()
    declared: dict[str, str] = {}

    def declare(name: str, kind: str, lineno: int) -> None:
        prior = declared.get(name)
        if prior is not None and prior != kind:
            raise KbParseError(f"{name!r} already declared as {prior}, redeclared as {kind}",
                               lineno)
        declared[name] = kind

    def lookup(table: Interner, name: str, kind: str, lineno: int) -> int:
        ident = table.id_of(name)
        if ident is None:
            raise KbParseError(f"undeclared {kind} {name!r}", lineno)
        return ident

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _split_line(raw, lineno)
        if not tokens:
            continue
        stmt = tokens[0]

        def arity(n: int) -> None:
            if len(tokens) != n + 1:
                raise KbParseError(
                    f"{stmt!r} expects {n} argument(s), got {len(tokens) - 1}", lineno)

        if stmt == "class":
            arity(1)
            declare(tokens[1], "class", lineno)
            if tokens[1] not in st.class_names:
                st.class_names.intern(tokens[1])
                kb.add_class()
        elif stmt == "role":
            arity(1)
            declare(tokens[1], "role", lineno)
            if tokens[1] not in st.role_names:
                st.role_names.intern(tokens[1])
                kb.add_role()
        elif stmt == "numrole":
            arity(1)
            declare(tokens[1], "numeric role", lineno)
            if tokens[1] not in st.num_role_names:
                st.num_role_names.intern(tokens[1])
                kb.add_num_role()
        elif stmt == "boolrole":
            arity(1)
            declare(tokens[1], "boolean role", lineno)
            if tokens[1] not in st.bool_role_names:
                st.bool_role_names.intern(tokens[1])
                kb.add_bool_role()
        elif stmt == "strrole":
            arity(1)
            declare(tokens[1], "string role", lineno)
            if tokens[1] not in st.str_role_names:
                st.str_role_names.intern(tokens[1])
                st.string_values.append(Interner())
                kb.add_str_role()
        elif stmt == "individual":
            arity(1)
            declare(tokens[1], "individual", lineno)
            if tokens[1] not in st.individual_names:
                st.individual_names.intern(tokens[1])
                kb.add_individual()
        elif stmt == "subclass":
            arity(2)
            sub = lookup(st.class_names, tokens[1], "class", lineno)
            sup = lookup(st.class_names, tokens[2], "class", lineno)
            kb.add_subclass(sub, sup)
        elif stmt == "subrole":
            arity(2)
            sub = lookup(st.role_names, tokens[1], "role", lineno)
            sup = lookup(st.role_names, tokens[2], "role", lineno)
            kb.add_subrole(sub, sup)
        elif stmt == "instance":
            arity(2)
            cid = lookup(st.class_names, tokens[1], "class", lineno)
            iid = lookup(st.individual_names, tokens[2], "individual", lineno)
            kb.add_instance(cid, iid)
        elif stmt == "fact":
            arity(3)
            rid = lookup(st.role_names, tokens[1], "role", lineno)
            sub = lookup(st.individual_names, tokens[2], "individual", lineno)
            obj = lookup(st.individual_names, tokens[3], "individual", lineno)
            kb.add_fact(rid, sub, obj)
        elif stmt == "numfact":
            arity(3)
            rid = lookup(st.num_role_names, tokens[1], "numeric role", lineno)
            sub = lookup(st.individual_names, tokens[2], "individual", lineno)
            try:
                val = float(tokens[3])
            except ValueError:
                raise KbParseError(f"bad number {tokens[3]!r}", lineno) from None
            if val != val:
                raise KbParseError("NaN is not a valid numeric value", lineno)
            kb.add_num_fact(rid, sub, val)
        elif stmt == "boolfact":
            arity(3)
            rid = lookup(st.bool_role_names, tokens[1], "boolean role", lineno)
            sub = lookup(st.individual_names, tokens[2], "individual", lineno)
            if tokens[3] not in ("true", "false"):
                raise KbParseError(f"expected true or false, got {tokens[3]!r}", lineno)
            kb.add_bool_fact(rid, sub, tokens[3] == "true")
        elif stmt == "strfact":
            arity(3)
            rid = lookup(st.str_role_names, tokens[1], "string role", lineno)
            sub = lookup(st.individual_names, tokens[2], "individual", lineno)
            vi = st.string_values[rid].intern(tokens[3])
            kb.add_str_fact(rid, sub, vi)
        else:
            raise KbParseError(f"unknown statement {stmt!r}", lineno)

    return st, kb


def parse_examples(text: str, st: SymbolTable) -> ExampleSet:
    """Parse ``+ name`` / ``- name`` lines into example masks."""
    pos: set[int] = set()
    neg: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _split_line(raw, lineno)
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
            for pair in pairs:
                kb.add_fact(sup, *pair)

    kb.materialized = True
    _build_caches(kb)
    return kb


def _build_caches(kb: KnowledgeBase) -> None:
    n = kb.num_individuals
    kb.member_masks = []
    for members in kb.class_members:
        mask = np.zeros(n, dtype=bool)
        if members:
            mask[sorted(members)] = True
        kb.member_masks.append(mask)
    kb.role_subs, kb.role_objs = [], []
    for pairs in kb.role_assertions:
        subs = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
        objs = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs))
        kb.role_subs.append(subs)
        kb.role_objs.append(objs)
    kb.num_subs, kb.num_vals = [], []
    for rows in kb.numeric_assertions:
        kb.num_subs.append(np.fromiter((r[0] for r in rows), dtype=np.int64, count=len(rows)))
        kb.num_vals.append(np.fromiter((r[1] for r in rows), dtype=np.float64, count=len(rows)))
    kb.bool_subs, kb.bool_vals = [], []
    for rows in kb.boolean_assertions:
        kb.bool_subs.append(np.fromiter((r[0] for r in rows), dtype=np.int64, count=len(rows)))
        kb.bool_vals.append(np.fromiter((r[1] for r in rows), dtype=bool, count=len(rows)))
    kb.str_subs, kb.str_vals = [], []
    for rows in kb.string_assertions:
        kb.str_subs.append(np.fromiter((r[0] for r in rows), dtype=np.int64, count=len(rows)))
        kb.str_vals.append(np.fromiter((r[1] for r in rows), dtype=np.int64, count=len(rows)))

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


def compute_statistics(kb: KnowledgeBase) -> KbStatistics:
    """Max role fillers, numeric value boundaries and hierarchy extremes."""
    if not kb.materialized:
        raise KbError("statistics require a materialized knowledge base")
    stats = KbStatistics()
    for pairs in kb.role_assertions:
        out_deg: dict[int, int] = {}
        in_deg: dict[int, int] = {}
        for sub, obj in pairs:
            out_deg[sub] = out_deg.get(sub, 0) + 1
            in_deg[obj] = in_deg.get(obj, 0) + 1
        stats.max_fillers.append(max(out_deg.values(), default=0))
        stats.max_fillers_inverse.append(max(in_deg.values(), default=0))
    for rows in kb.numeric_assertions:
        stats.numeric_boundaries.append(sorted({v for _, v in rows}))
    for rows in kb.string_assertions:
        stats.string_domains.append(sorted({vi for _, vi in rows}))
    has_super = {sub for sub, _ in kb.subclass_edges}
    has_sub = {sup for _, sup in kb.subclass_edges}
    stats.top_level_classes = [c for c in range(kb.num_classes) if c not in has_super]
    stats.leaf_classes = [c for c in range(kb.num_classes) if c not in has_sub]
    return stats


# ---------------------------------------------------------------------------
# Binary codec

KB_MAGIC = b"SPKB"
KB_VERSION = 1

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


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

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

    def records(self, dtype: np.dtype) -> np.ndarray:
        """u32 count, then that many records of ``dtype``, in one read."""
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


def _pairs(rows: np.ndarray, a_limit: int, a_what: str, b_limit: int,
           b_what: str) -> list[tuple[int, int]]:
    _check_range(rows["a"], a_limit, a_what, rows["b"], b_limit, b_what)
    return rows.tolist()


def _unique(rows: list[tuple]) -> tuple[list[tuple], set[tuple]]:
    """The first occurrence of each row in order, and the set of rows: what
    adding them one by one through the ``KnowledgeBase.add_*`` methods
    builds."""
    seen = set(rows)
    return (rows if len(seen) == len(rows) else list(dict.fromkeys(rows))), seen


def _interner(names: list[str]) -> Interner:
    interner = Interner(names)
    if len(interner) != len(names):
        raise KbCodecError("duplicate name in a namespace")
    return interner


def serialize_kb(kb: KnowledgeBase, st: SymbolTable) -> bytes:
    """Binary form: magic, version, table sections, trailing CRC32 of payload.

    The payload is the materialized flag (u8); the names of each namespace
    and then each string role's values (u32 count, per name u32 length and
    UTF-8 bytes); each class's sorted members (u32 count, u32 ids); the
    subclass edges, each role's pairs and the subrole edges (u32 count, u32
    id pairs); each numeric role's (u32 id, f64 value), each boolean role's
    (u32 id, u8 0|1) and each string role's (u32 id, u32 value id) rows, each
    list prefixed with its u32 count. All big-endian.
    """
    out = [b"\x01" if kb.materialized else b"\x00"]
    for interner in (st.class_names, st.role_names, st.num_role_names,
                     st.bool_role_names, st.str_role_names, st.individual_names,
                     *st.string_values):
        out.append(_names_bytes(interner.names))
    for members in kb.class_members:
        out.append(_u32.pack(len(members))
                   + np.array(sorted(members), dtype=_ID).tobytes())
    out.append(_rows_bytes(kb.subclass_edges, _PAIR))
    out.extend(_rows_bytes(pairs, _PAIR) for pairs in kb.role_assertions)
    out.append(_rows_bytes(kb.subrole_edges, _PAIR))
    out.extend(_rows_bytes(rows, _NUM_ROW) for rows in kb.numeric_assertions)
    out.extend(_rows_bytes(rows, _BOOL_ROW) for rows in kb.boolean_assertions)
    out.extend(_rows_bytes(rows, _PAIR) for rows in kb.string_assertions)
    payload = b"".join(out)
    return KB_MAGIC + _u16.pack(KB_VERSION) + payload + _u32.pack(zlib.crc32(payload))


def deserialize_kb(data: bytes) -> tuple[SymbolTable, KnowledgeBase]:
    """Inverse of serialize_kb, validating magic, version and checksum, the
    names, the ids and booleans of every record, and that nothing trails the
    payload; each failure raises ``KbCodecError``. Repeated rows are kept
    once, in first-occurrence order, as the ``KnowledgeBase.add_*`` methods
    keep them.
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
    st = SymbolTable()
    kb = KnowledgeBase()
    materialized = r.u8()
    if materialized not in (0, 1):
        raise KbCodecError(f"bad materialized flag {materialized}")
    adders = (
        ("class_names", kb.add_class), ("role_names", kb.add_role),
        ("num_role_names", kb.add_num_role), ("bool_role_names", kb.add_bool_role),
        ("str_role_names", kb.add_str_role),
    )
    for attr, add in adders:
        names = r.names()
        setattr(st, attr, _interner(names))
        for _ in names:
            add()
    st.individual_names = _interner(r.names())
    kb.num_individuals = len(st.individual_names)
    st.string_values = [_interner(r.names()) for _ in st.str_role_names.names]

    n_ind = kb.num_individuals
    for members in kb.class_members:
        ids = r.records(_ID)
        _check_range(ids, n_ind, "individual")
        members.update(ids.tolist())
    kb.subclass_edges, kb._edge_set = _unique(
        _pairs(r.records(_PAIR), kb.num_classes, "class", kb.num_classes, "class"))
    for rid in range(kb.num_roles):
        kb.role_assertions[rid], kb._role_pair_sets[rid] = _unique(
            _pairs(r.records(_PAIR), n_ind, "individual", n_ind, "individual"))
    kb.subrole_edges, kb._redge_set = _unique(
        _pairs(r.records(_PAIR), kb.num_roles, "role", kb.num_roles, "role"))
    for rid in range(len(kb.numeric_assertions)):
        rows = r.records(_NUM_ROW)
        _check_range(rows["a"], n_ind, "individual")
        kb.numeric_assertions[rid], kb._num_sets[rid] = _unique(rows.tolist())
    for rid in range(len(kb.boolean_assertions)):
        rows = r.records(_BOOL_ROW)
        subs, flags = rows["a"], rows["b"]
        bad = flags > 1
        if bad.any():
            first = int(np.argmax(bad))
            _check_range(subs[:first + 1], n_ind, "individual")  # ids come first
            raise KbCodecError(f"bad boolean {flags[first]}")
        _check_range(subs, n_ind, "individual")
        kb.boolean_assertions[rid], kb._bool_sets[rid] = _unique(
            list(zip(subs.tolist(), (flags == 1).tolist())))
    for rid in range(len(kb.string_assertions)):
        kb.string_assertions[rid], kb._str_sets[rid] = _unique(
            _pairs(r.records(_PAIR), n_ind, "individual",
                   len(st.string_values[rid]), "string value"))
    if r.pos != len(payload):
        raise KbCodecError(f"{len(payload) - r.pos} trailing payload bytes")

    if materialized:
        kb.materialized = True
        _build_caches(kb)
    return st, kb
