"""Downward refinement operator over canonical concepts.

Each rule either descends a class/role hierarchy, tightens a numeric or
cardinality bound, or adds a conjunct, so iterated refinement is monotone in
concept length. Results are deduplicated, sorted in canonical order, and
never include the input concept itself; two structurally different
concepts with one hash raise a ``hash collision`` error rather than one of
them being dropped. They are length-bounded and canonical by construction:
each rule builds within its bound, the input is canonical, and every And/Or
is built by ``concept.connective``.

Disjunction enters the search only at the very top: ``refine_top_levels``
pairs distinct refinements of Thing into binary unions, and rule application
afterwards only rewrites the operands of an existing union.

A search refines in the context of its examples, a ``TopContext``: the
roles, inverse roles and concrete roles that some example is the subject
of, read by ``top_context`` from the example space evaluation builds. A
restriction over a role no example is the subject of is constant on the
examples: ``some``, ``min`` and every concrete restriction are false,
``only`` and ``max`` are true, and so is every refinement of it. So in
context, the rules that introduce a role at the top level leave such roles
out: rule 1 proposes no ``some``/``only``/``min 2`` over them and no ``mb``
entry of such a concrete role, and the ``some`` rule rewrites no role to such
a direct subrole. The top level is the concept itself and, through
``And``/``Or``, its operands, which inherit the context. A filler is refined
in the refiner's ``full`` context of every role, inverse role and concrete
role, as a concept is when no context is given. For a concept with no such
restriction among its top-level operands, refinement in context is
refinement in the full context minus the results that have one.

Rule 1, the atoms directly below Thing, is a table per context that
``Refiner.atoms`` builds once, sorted by length; each call takes the prefix
within its bound, so every rule reads the same atom objects.

``refine`` reads what it refines against from a ``Refiner``, built once
per search from the KB, its statistics, its concrete-role pool and the
search's settings, of which it reads the four ``use_*`` flags of the
hypothesis language. None of these changes during a search, so the result
is a pure function of ``c``, the bound, the context and the refiner.

``refine`` is memoized in the refiner's ``memo``, which maps (canonical sort
key of ``c``, bound, context) to the refinement list. The check sits inside
``refine`` itself, so the recursive calls on operands and fillers hit it as
well as the search's own calls. A context is keyed by identity, as each
search computes its own once; a call without one is resolved to the
refiner's ``full`` context before the key is built, so it shares that
context's entries. The memo lives exactly as long as its refiner: one
``run_search`` or one worker connection's KB state. Each call still returns
a new list; the memo keeps a tuple of the same concept objects.

The refiner's ``interned`` table maps each result's canonical sort key,
which is injective, to the result, so a concept that one search builds
again, such as ``A and B`` from ``A`` and from ``B``, or a refinement at the
next bound, comes back as the object built first, with its stored hash,
length, sort key and encoding.

None of these tables needs a lock: threads sharing a refiner can only
compute an equal entry twice.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .concept import (MAX_CARDINALITY, TOP, And, Atomic, BoolEq, Concept,
                      Exists, Forall, MaxCard, MinCard, NotAtomic, NumGeq,
                      NumLeq, Or, RoleExpr, StrEq, Top, concept_length,
                      connective, hash_concept, sort_key)
from .evaluation import RowSpace
from .kb import KbStatistics, KnowledgeBase

if TYPE_CHECKING:  # search imports this module
    from .search import SearchSettings

__all__ = ["Refiner", "TopContext", "build_mb", "refine", "refine_top_levels",
           "top_context"]


class Refiner:
    """What one search refines against, with refine's memo and intern table
    and the rule-1 atoms of each context (see the module docstring).
    ``settings`` is the search's ``SearchSettings`` or ``SearchConfig``."""

    __slots__ = ("kb", "stats", "mb", "use_inverse_roles", "use_cardinality",
                 "use_disjunction", "use_negation", "full", "memo", "interned",
                 "atom_tables")

    def __init__(self, kb: KnowledgeBase, stats: KbStatistics,
                 mb: list[Concept], settings: SearchSettings):
        self.kb, self.stats, self.mb = kb, stats, mb
        self.use_inverse_roles = settings.use_inverse_roles
        self.use_cardinality = settings.use_cardinality
        self.use_disjunction = settings.use_disjunction
        self.use_negation = settings.use_negation
        self.full = TopContext(
            frozenset(RoleExpr(rid, inverse) for inverse in (False, True)
                      for rid in range(kb.num_roles)),
            frozenset(range(kb.num_boolean_roles)),
            frozenset(range(kb.num_numeric_roles)),
            frozenset(range(kb.num_string_roles)))
        self.memo: dict[tuple, tuple[Concept, ...]] = {}
        self.interned: dict[tuple, Concept] = {}
        # Each context's rule-1 atoms, shortest first, with their lengths.
        self.atom_tables: dict[TopContext, tuple] = {}

    def filler_cap(self, role: RoleExpr) -> int:
        """The KB's most fillers of ``role``, at most what the codec holds."""
        caps = (self.stats.max_fillers_inverse if role.inverse
                else self.stats.max_fillers)
        return min(caps[role.role_id], MAX_CARDINALITY)

    def atoms(self, bound: int, context: TopContext) -> tuple[Concept, ...]:
        """Rule 1: the atoms reachable directly from Thing over the roles of
        ``context``, with length <= ``bound``, shortest first."""
        table = self.atom_tables.get(context)
        if table is None:
            table = self.atom_tables[context] = self._atom_table(context)
        atoms, lengths = table
        return atoms[:bisect_right(lengths, bound)]

    def _atom_table(self, context: TopContext
                    ) -> tuple[tuple[Concept, ...], list[int]]:
        out: list[Concept] = [Atomic(c) for c in self.stats.top_level_classes]
        by_type = {BoolEq: context.bools, StrEq: context.strs,
                   NumGeq: context.nums, NumLeq: context.nums}
        out.extend(m for m in self.mb if m.role_id in by_type[type(m)])
        if self.use_negation:
            out.extend(NotAtomic(c) for c in self.stats.leaf_classes)
        for inverse in (False, True) if self.use_inverse_roles else (False,):
            for rid in range(self.kb.num_roles):
                role = RoleExpr(rid, inverse)
                if role not in context.roles:
                    continue
                out += (Exists(role, TOP), Forall(role, TOP))
                if (self.use_cardinality and not inverse
                        and self.filler_cap(role) >= 2):
                    out.append(MinCard(2, role, TOP))
        out.sort(key=concept_length)
        return tuple(out), [concept_length(a) for a in out]


@dataclass(frozen=True, eq=False)
class TopContext:
    """The role expressions, and the boolean, numeric and string roles by
    id, that some example is the subject of. Compared and hashed by
    identity, as a memo key."""

    roles: frozenset[RoleExpr]
    bools: frozenset[int]
    nums: frozenset[int]
    strs: frozenset[int]


def top_context(space: RowSpace) -> TopContext:
    """The context of the examples in ``space``, evaluation's example space:
    each role, inverse role and concrete role with a pair whose subject is
    an example."""

    def with_pairs(subs_list) -> frozenset[int]:
        return frozenset(i for i, subs in enumerate(subs_list) if len(subs))

    return TopContext(
        frozenset(RoleExpr(rid, inverse) for inverse in (False, True)
                  for rid in with_pairs(space.roles[inverse][0])),
        with_pairs(space.bools[0]), with_pairs(space.nums[0]),
        with_pairs(space.strs[0]))


def build_mb(kb: KnowledgeBase, stats: KbStatistics) -> list[Concept]:
    """Concrete-role restriction pool: both booleans, every numeric boundary
    as >= and <=, and every asserted string value."""
    mb: list[Concept] = []
    for b in range(kb.num_boolean_roles):
        mb.append(BoolEq(b, True))
        mb.append(BoolEq(b, False))
    for d in range(kb.num_numeric_roles):
        bounds = stats.numeric_boundaries[d]
        mb.extend(NumGeq(d, v) for v in bounds)
        mb.extend(NumLeq(d, v) for v in bounds)
    for sr in range(kb.num_string_roles):
        mb.extend(StrEq(sr, vi) for vi in stats.string_domains[sr])
    return mb


def refine(c: Concept, length_bound: int, r: Refiner,
           context: TopContext | None = None) -> list[Concept]:
    """All one-step refinements of canonical ``c`` with length <= bound, in
    ``context``, the refiner's full context if None (see the module
    docstring)."""
    if context is None:
        context = r.full
    memo_key = (sort_key(c), length_bound, context)
    known = r.memo.get(memo_key)
    if known is not None:
        return list(known)
    if length_bound < concept_length(c):
        raise ValueError("length bound below the concept's own length")
    raw = _apply_rules(c, length_bound, r, context)
    if isinstance(c, Top) and r.use_disjunction:
        raw.extend(refine_top_levels(length_bound, r, context))
    interned = r.interned
    # The first concept of each hash, the input's first: a later one is a
    # duplicate unless it differs in structure, which is a hash collision.
    seen = {hash_concept(c): c}
    out: list[Concept] = []
    for d in raw:
        d = interned.setdefault(sort_key(d), d)
        h = hash_concept(d)
        first = seen.get(h)
        if first is not None:
            if first is d or first == d:
                continue
            raise RuntimeError(f"hash collision 0x{h:016x} between "
                               f"structurally different concepts")
        seen[h] = d
        out.append(d)
    out.sort(key=sort_key)
    r.memo[memo_key] = tuple(out)
    return out


def refine_top_levels(length_bound: int, r: Refiner,
                      context: TopContext | None = None) -> list[Concept]:
    """Binary unions of distinct rule-1 atoms, length-bounded and canonical,
    in ``context``, the refiner's full context if None."""
    atoms = r.atoms(length_bound - 2, r.full if context is None else context)
    out: list[Concept] = []
    for i, a in enumerate(atoms):
        room = length_bound - 1 - concept_length(a)
        for b in atoms[i + 1:]:
            if concept_length(b) > room:
                break  # the atoms are sorted by length
            u = connective(Or, (a, b))
            if isinstance(u, Or):  # drops weakly-equal pairs that collapse
                out.append(u)
    return out


def _apply_rules(c: Concept, bound: int, r: Refiner,
                 context: TopContext) -> list[Concept]:
    kb = r.kb
    out: list[Concept] = []

    if isinstance(c, Top):
        out.extend(r.atoms(bound, context))

    elif isinstance(c, Atomic):
        out.extend(Atomic(s) for s in kb.direct_subclasses[c.class_id])
        out.extend(connective(And, (c, x))
                   for x in r.atoms(bound - 2, context))

    elif isinstance(c, NotAtomic):
        # The complement shrinks as the class grows.
        out.extend(NotAtomic(s) for s in kb.direct_superclasses[c.class_id])

    elif isinstance(c, (Exists, Forall, MinCard, MaxCard)):
        # Every restriction refines its filler, in the full context; then
        # each has its own rule.
        t, role, child = type(c), c.role, c.child
        head = (role,) if t is Exists or t is Forall else (c.n, role)
        child_bound = bound - concept_length(c) + concept_length(child)
        out.extend(t(*head, d) for d in refine(child, child_bound, r, r.full))
        if t is Exists:
            for s in kb.direct_subroles[role.role_id]:
                sub = RoleExpr(s, role.inverse)
                if sub in context.roles:
                    out.append(Exists(sub, child))
            if (r.use_cardinality and concept_length(c) + 1 <= bound
                    and r.filler_cap(role) >= 2):
                out.append(MinCard(2, role, child))
        elif t is MinCard:
            if c.n + 1 <= r.filler_cap(role):
                out.append(MinCard(c.n + 1, role, child))
        elif t is MaxCard and c.n >= 1:
            out.append(MaxCard(c.n - 1, role, child))

    elif isinstance(c, NumGeq):
        bounds = r.stats.numeric_boundaries[c.role_id]
        above = [v for v in bounds if v > c.value]
        if above:
            out.append(NumGeq(c.role_id, above[0]))

    elif isinstance(c, NumLeq):
        bounds = r.stats.numeric_boundaries[c.role_id]
        below = [v for v in bounds if v < c.value]
        if below:
            out.append(NumLeq(c.role_id, below[-1]))

    elif isinstance(c, (BoolEq, StrEq)):
        pass  # terminal restrictions

    elif isinstance(c, (And, Or)):
        total = concept_length(c)
        for i, child in enumerate(c.children):
            child_bound = bound - total + concept_length(child)
            for d in refine(child, child_bound, r, context):
                rebuilt = c.children[:i] + (d,) + c.children[i + 1:]
                out.append(connective(type(c), rebuilt))
        if isinstance(c, And):
            out.extend(connective(And, c.children + (x,))
                       for x in r.atoms(bound - total - 1, context))

    else:
        raise TypeError(f"not a concept: {c!r}")

    return out
