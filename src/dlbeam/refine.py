"""Downward refinement operator over canonical concepts.

Each rule either descends a class/role hierarchy, tightens a numeric or
cardinality bound, or adds a conjunct, so iterated refinement is monotone in
concept length. Results are deduplicated, length-bounded, sorted in
canonical order, and never include the input concept itself. They are
canonical by construction: the input is, and every And/Or is built by
``concept.connective``, so no pass over the results is needed.

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
``And``/``Or``, its operands, which inherit the context; a filler is refined
without one (``context`` None), as the whole concept is when no context is
given. For a concept with no such restriction among its top-level operands,
refinement in context is exactly the context-free refinement minus the
results that have one.

``refine`` is memoized. Each ``RefinementConfig`` object carries one memo,
created with it, that maps (canonical sort key of ``c``, bound, context) to
the refinement list, and the check sits inside ``refine`` itself, so the
recursive calls on operands and fillers hit it as well as the search's own
calls. A context is keyed by identity, as each search computes its own once.
The result is a pure function of ``c``, the bound, the context and the
(kb, stats, mb, cfg) it is computed against: the rules read only those, and
none of them changes during a search. The memo therefore remembers which
(kb, stats, mb) it was filled for and starts afresh when called with any
other objects. It lives exactly as long as its config: one ``run_search``
or one worker connection's KB state. Each call still returns a new list;
the memo keeps a tuple of the same concept objects.

The same table interns every result by its canonical sort key, which is
injective, so a concept that one search builds again, such as ``A and B``
from ``A`` and from ``B``, or a refinement at the next bound, comes back as
the object built first, with its stored hash, length, sort key and encoding.
A sort key starts with its constructor's rank, an int, and a memo key with a
sort key, a tuple, so the two kinds of entry never meet.

The memo needs no lock: threads sharing a config can only compute an equal
entry twice, and a rebinding replaces the (owner, table) pair as a whole, so
no call ever writes into a table filled for other objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from .concept import (MAX_CARDINALITY, TOP, And, Atomic, BoolEq, Concept,
                      Exists, Forall, MaxCard, MinCard, NotAtomic, NumGeq,
                      NumLeq, Or, RoleExpr, StrEq, Top, concept_length,
                      connective, hash_concept, sort_key)
from .evaluation import RowSpace
from .kb import KbStatistics, KnowledgeBase

__all__ = ["RefinementConfig", "TopContext", "build_mb", "refine",
           "refine_top_levels", "top_context"]


@dataclass(frozen=True)
class RefinementConfig:
    max_cardinality: tuple[int, ...] = ()
    max_cardinality_inverse: tuple[int, ...] = ()
    use_inverse_roles: bool = True
    use_cardinality: bool = True
    use_disjunction: bool = True
    use_negation: bool = True

    @classmethod
    def from_stats(cls, stats: KbStatistics, **kwargs) -> "RefinementConfig":
        return cls(max_cardinality=tuple(stats.max_fillers),
                   max_cardinality_inverse=tuple(stats.max_fillers_inverse),
                   **kwargs)

    def __post_init__(self):
        # refine's memo (see the module docstring): (owner, table), where
        # owner is the (kb, stats, mb) the table was filled for. Not a field,
        # so it takes no part in equality, repr or construction.
        object.__setattr__(self, "_memo", ((None, None, None), {}))

    def filler_cap(self, role) -> int:
        """The KB's most fillers of ``role``, at most what the codec holds."""
        caps = self.max_cardinality_inverse if role.inverse else self.max_cardinality
        return min(caps[role.role_id], MAX_CARDINALITY)


@dataclass(frozen=True, eq=False)
class TopContext:
    """The role expressions, and the boolean, numeric and string roles by
    id, that some example is the subject of. Compared and hashed by
    identity, as a memo key."""

    roles: frozenset[RoleExpr]
    bools: frozenset[int]
    nums: frozenset[int]
    strs: frozenset[int]

    def admits(self, m: Concept) -> bool:
        """Whether the concrete-role restriction ``m`` has an example subject."""
        t = type(m)
        if t is BoolEq:
            return m.role_id in self.bools
        if t is StrEq:
            return m.role_id in self.strs
        return m.role_id in self.nums


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


def _role_exprs(kb: KnowledgeBase, cfg: RefinementConfig,
                context: TopContext | None):
    for inverse in (False, True) if cfg.use_inverse_roles else (False,):
        for rid in range(kb.num_roles):
            role = RoleExpr(rid, inverse)
            if context is None or role in context.roles:
                yield role


def _top_refinements(bound: int, kb: KnowledgeBase, stats: KbStatistics,
                     mb: list[Concept], cfg: RefinementConfig,
                     context: TopContext | None) -> list[Concept]:
    """Rule 1: the atoms reachable directly from Thing, length-bounded, over
    the roles of ``context``."""
    out: list[Concept] = []
    if bound >= 1:
        out.extend(Atomic(c) for c in stats.top_level_classes)
        out.extend(m for m in mb if concept_length(m) <= bound
                   and (context is None or context.admits(m)))
    if cfg.use_negation and bound >= 2:
        out.extend(NotAtomic(c) for c in stats.leaf_classes)
    for role in _role_exprs(kb, cfg, context):
        rlen = 3 + (1 if role.inverse else 0)
        if rlen <= bound:
            out.append(Exists(role, TOP))
            out.append(Forall(role, TOP))
        if (cfg.use_cardinality and not role.inverse and rlen + 1 <= bound
                and cfg.filler_cap(role) >= 2):
            out.append(MinCard(2, role, TOP))
    return out


def _memo_table(kb: KnowledgeBase, stats: KbStatistics, mb: list[Concept],
                cfg: RefinementConfig) -> dict:
    """The memo ``cfg`` keeps for this (kb, stats, mb); a new one for others."""
    owner, table = cfg._memo
    if owner[0] is not kb or owner[1] is not stats or owner[2] is not mb:
        table = {}
        object.__setattr__(cfg, "_memo", ((kb, stats, mb), table))
    return table


def refine(c: Concept, length_bound: int, kb: KnowledgeBase, stats: KbStatistics,
           mb: list[Concept], cfg: RefinementConfig,
           context: TopContext | None = None) -> list[Concept]:
    """All one-step refinements of canonical ``c`` with length <= bound, in
    ``context`` if one is given (see the module docstring)."""
    table = _memo_table(kb, stats, mb, cfg)
    memo_key = (sort_key(c), length_bound, context)
    known = table.get(memo_key)
    if known is not None:
        return list(known)
    if length_bound < concept_length(c):
        raise ValueError("length bound below the concept's own length")
    raw = _apply_rules(c, length_bound, kb, stats, mb, cfg, context)
    if isinstance(c, Top) and cfg.use_disjunction:
        raw.extend(refine_top_levels(length_bound, kb, stats, mb, cfg, context))
    seen: set[int] = set()
    out: list[Concept] = []
    input_hash = hash_concept(c)
    for r in raw:
        if concept_length(r) > length_bound:
            continue
        r = table.setdefault(sort_key(r), r)  # the intern table
        h = hash_concept(r)
        if h == input_hash or h in seen:
            continue
        seen.add(h)
        out.append(r)
    out.sort(key=sort_key)
    table[memo_key] = tuple(out)
    return out


def refine_top_levels(length_bound: int, kb: KnowledgeBase, stats: KbStatistics,
                      mb: list[Concept], cfg: RefinementConfig,
                      context: TopContext | None = None) -> list[Concept]:
    """Binary unions of distinct rule-1 atoms, length-bounded and canonical."""
    atoms = _top_refinements(length_bound - 2, kb, stats, mb, cfg, context)
    out: list[Concept] = []
    for i in range(len(atoms)):
        li = concept_length(atoms[i])
        for j in range(i + 1, len(atoms)):
            if li + concept_length(atoms[j]) + 1 > length_bound:
                continue
            u = connective(Or, (atoms[i], atoms[j]))
            if isinstance(u, Or):  # drops weakly-equal pairs that collapse
                out.append(u)
    return out


def _apply_rules(c: Concept, bound: int, kb: KnowledgeBase, stats: KbStatistics,
                 mb: list[Concept], cfg: RefinementConfig,
                 context: TopContext | None) -> list[Concept]:
    out: list[Concept] = []

    if isinstance(c, Top):
        out.extend(_top_refinements(bound, kb, stats, mb, cfg, context))

    elif isinstance(c, Atomic):
        out.extend(Atomic(s) for s in kb.direct_subclasses[c.class_id])
        for x in _top_refinements(bound - 2, kb, stats, mb, cfg, context):
            out.append(connective(And, (c, x)))

    elif isinstance(c, NotAtomic):
        # The complement shrinks as the class grows.
        out.extend(NotAtomic(s) for s in kb.direct_superclasses[c.class_id])

    elif isinstance(c, Exists):
        overhead = concept_length(c) - concept_length(c.child)
        child_bound = bound - overhead
        if child_bound >= concept_length(c.child):
            out.extend(Exists(c.role, r)
                       for r in refine(c.child, child_bound, kb, stats, mb, cfg))
        for s in kb.direct_subroles[c.role.role_id]:
            sub = RoleExpr(s, c.role.inverse)
            if context is None or sub in context.roles:
                out.append(Exists(sub, c.child))
        if (cfg.use_cardinality and concept_length(c) + 1 <= bound
                and cfg.filler_cap(c.role) >= 2):
            out.append(MinCard(2, c.role, c.child))

    elif isinstance(c, Forall):
        overhead = concept_length(c) - concept_length(c.child)
        child_bound = bound - overhead
        if child_bound >= concept_length(c.child):
            out.extend(Forall(c.role, r)
                       for r in refine(c.child, child_bound, kb, stats, mb, cfg))

    elif isinstance(c, MinCard):
        if c.n + 1 <= cfg.filler_cap(c.role):
            out.append(MinCard(c.n + 1, c.role, c.child))
        overhead = concept_length(c) - concept_length(c.child)
        child_bound = bound - overhead
        if child_bound >= concept_length(c.child):
            out.extend(MinCard(c.n, c.role, r)
                       for r in refine(c.child, child_bound, kb, stats, mb, cfg))

    elif isinstance(c, MaxCard):
        if c.n - 1 >= 0:
            out.append(MaxCard(c.n - 1, c.role, c.child))
        overhead = concept_length(c) - concept_length(c.child)
        child_bound = bound - overhead
        if child_bound >= concept_length(c.child):
            out.extend(MaxCard(c.n, c.role, r)
                       for r in refine(c.child, child_bound, kb, stats, mb, cfg))

    elif isinstance(c, NumGeq):
        bounds = stats.numeric_boundaries[c.role_id]
        above = [v for v in bounds if v > c.value]
        if above:
            out.append(NumGeq(c.role_id, above[0]))

    elif isinstance(c, NumLeq):
        bounds = stats.numeric_boundaries[c.role_id]
        below = [v for v in bounds if v < c.value]
        if below:
            out.append(NumLeq(c.role_id, below[-1]))

    elif isinstance(c, (BoolEq, StrEq)):
        pass  # terminal restrictions

    elif isinstance(c, (And, Or)):
        total = concept_length(c)
        for i, child in enumerate(c.children):
            child_bound = bound - (total - concept_length(child))
            if child_bound < concept_length(child):
                continue
            for r in refine(child, child_bound, kb, stats, mb, cfg, context):
                rebuilt = c.children[:i] + (r,) + c.children[i + 1:]
                out.append(connective(type(c), rebuilt))
        if isinstance(c, And):
            for x in _top_refinements(bound - total - 1, kb, stats, mb, cfg,
                                      context):
                out.append(connective(And, c.children + (x,)))

    else:
        raise TypeError(f"not a concept: {c!r}")

    return out
