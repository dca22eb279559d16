"""Seeded random builders for knowledge bases, concepts and example sets.

Everything takes an explicit random.Random so failures reproduce from the
seed printed by the calling test.
"""

import itertools
from dataclasses import dataclass

from dlbeam.concept import (And, Atomic, BoolEq, Exists, Forall, MaxCard,
                            MinCard, NotAtomic, NumGeq, NumLeq, Or, RoleExpr,
                            StrEq, TOP, canonicalize)
from dlbeam.kb import (ExampleSet, Interner, KnowledgeBase, SymbolTable,
                       materialize)

# Numeric facts draw from a fixed pool so random restrictions actually split
# the individuals instead of each hitting a unique value.
NUM_POOL = (-4.0, -2.5, -1.0, 0.0, 0.5, 1.5, 3.0, 4.25)


@dataclass(frozen=True)
class ConceptDims:
    """Symbol-space sizes a random concept may reference."""

    n_classes: int = 6
    n_roles: int = 4
    n_num: int = 2
    n_bool: int = 1
    n_str: int = 1


def dims_of(kb: KnowledgeBase) -> ConceptDims:
    return ConceptDims(kb.num_classes, kb.num_roles,
                       len(kb.numeric_assertions), len(kb.boolean_assertions),
                       len(kb.string_assertions))


def random_kb(rng, max_individuals=30, max_classes=6, max_roles=4,
              max_concrete=3, do_materialize=True):
    """A small random KB: acyclic hierarchies, random assertion tables."""
    st = SymbolTable()
    kb = KnowledgeBase()
    n_classes = rng.randint(2, max_classes)
    n_roles = rng.randint(1, max_roles)
    n_ind = rng.randint(4, max_individuals)
    for i in range(n_classes):
        st.class_names.intern(f"C{i}")
        kb.add_class()
    for i in range(n_roles):
        st.role_names.intern(f"r{i}")
        kb.add_role()
    kinds = [rng.choice("nbs") for _ in range(rng.randint(0, max_concrete))]
    for k in kinds:
        if k == "n":
            st.num_role_names.intern(f"num{len(kb.numeric_assertions)}")
            kb.add_num_role()
        elif k == "b":
            st.bool_role_names.intern(f"flag{len(kb.boolean_assertions)}")
            kb.add_bool_role()
        else:
            st.str_role_names.intern(f"tag{len(kb.string_assertions)}")
            st.string_values.append(Interner())
            kb.add_str_role()
    for i in range(n_ind):
        st.individual_names.intern(f"i{i}")
        kb.add_individual()

    # Edges only point from a higher index to a lower one, so both
    # hierarchies are acyclic by construction.
    for sub in range(1, n_classes):
        for sup in range(sub):
            if rng.random() < 0.25:
                kb.add_subclass(sub, sup)
    for sub in range(1, n_roles):
        for sup in range(sub):
            if rng.random() < 0.2:
                kb.add_subrole(sub, sup)

    for x in range(n_ind):
        for c in range(n_classes):
            if rng.random() < 0.3:
                kb.add_instance(c, x)
    for r in range(n_roles):
        for _ in range(rng.randint(0, 2 * n_ind)):
            kb.add_fact(r, rng.randrange(n_ind), rng.randrange(n_ind))
    for d in range(len(kb.numeric_assertions)):
        for _ in range(rng.randint(0, n_ind)):
            kb.add_num_fact(d, rng.randrange(n_ind), rng.choice(NUM_POOL))
    for b in range(len(kb.boolean_assertions)):
        for _ in range(rng.randint(0, n_ind)):
            kb.add_bool_fact(b, rng.randrange(n_ind), rng.random() < 0.5)
    for s in range(len(kb.string_assertions)):
        values = [st.string_values[s].intern(f"v{j}")
                  for j in range(rng.randint(1, 4))]
        for _ in range(rng.randint(0, n_ind)):
            kb.add_str_fact(s, rng.randrange(n_ind), rng.choice(values))

    if do_materialize:
        materialize(kb, st)
    return st, kb


def tiny_kb(rng):
    """Codec-volume variant: a few individuals, cheap to serialize."""
    return random_kb(rng, max_individuals=6, max_classes=3, max_roles=2,
                     max_concrete=2, do_materialize=rng.random() < 0.5)


def random_examples(rng, kb: KnowledgeBase) -> ExampleSet:
    ids = list(range(kb.num_individuals))
    rng.shuffle(ids)
    npos = rng.randint(1, max(1, len(ids) // 2))
    nneg = rng.randint(1, max(1, len(ids) - npos))
    return ExampleSet.from_ids(kb.num_individuals, ids[:npos],
                               ids[npos:npos + nneg])


def example_subset_kb(rng, max_individuals=30):
    """A random KB whose examples are a small subset of its individuals,
    plus a role, a numeric role and a boolean role whose subjects are never
    examples (the role's objects may be). Returns (st, kb, examples)."""
    st, kb = random_kb(rng, max_individuals=max_individuals,
                       do_materialize=False)
    ids = list(range(kb.num_individuals))
    rng.shuffle(ids)
    size = rng.randint(2, max(2, len(ids) // 4))
    npos = rng.randint(1, size - 1)
    examples = ExampleSet.from_ids(kb.num_individuals, ids[:npos],
                                   ids[npos:size])
    others = ids[size:]
    st.role_names.intern("away")
    kb.add_role()
    st.num_role_names.intern(f"num{len(kb.numeric_assertions)}")
    kb.add_num_role()
    st.bool_role_names.intern(f"flag{len(kb.boolean_assertions)}")
    kb.add_bool_role()
    for _ in range(rng.randint(1, 2 * len(others))):
        kb.add_fact(kb.num_roles - 1, rng.choice(others), rng.choice(ids))
        kb.add_num_fact(len(kb.numeric_assertions) - 1, rng.choice(others),
                        rng.choice(NUM_POOL))
        kb.add_bool_fact(len(kb.boolean_assertions) - 1, rng.choice(others),
                         rng.random() < 0.5)
    materialize(kb, st)
    return st, kb, examples


def _random_role(rng, dims: ConceptDims) -> RoleExpr:
    return RoleExpr(rng.randrange(dims.n_roles), rng.random() < 0.3)


def _random_leaf(rng, dims: ConceptDims):
    kinds = ["top", "atomic", "atomic", "notatomic"]
    if dims.n_num:
        kinds += ["numgeq", "numleq"]
    if dims.n_bool:
        kinds.append("booleq")
    if dims.n_str:
        kinds.append("streq")
    k = rng.choice(kinds)
    if k == "top":
        return TOP
    if k == "atomic":
        return Atomic(rng.randrange(dims.n_classes))
    if k == "notatomic":
        return NotAtomic(rng.randrange(dims.n_classes))
    if k == "numgeq":
        return NumGeq(rng.randrange(dims.n_num), rng.choice(NUM_POOL))
    if k == "numleq":
        return NumLeq(rng.randrange(dims.n_num), rng.choice(NUM_POOL))
    if k == "booleq":
        return BoolEq(rng.randrange(dims.n_bool), rng.random() < 0.5)
    return StrEq(rng.randrange(dims.n_str), rng.randrange(4))


def _random_tree(rng, dims: ConceptDims, depth: int):
    if depth == 0 or dims.n_roles == 0 or rng.random() < 0.35:
        return _random_leaf(rng, dims)
    k = rng.choice(["exists", "forall", "mincard", "maxcard", "and", "or"])
    if k == "exists":
        return Exists(_random_role(rng, dims), _random_tree(rng, dims, depth - 1))
    if k == "forall":
        return Forall(_random_role(rng, dims), _random_tree(rng, dims, depth - 1))
    if k == "mincard":
        return MinCard(rng.randint(1, 3), _random_role(rng, dims),
                       _random_tree(rng, dims, depth - 1))
    if k == "maxcard":
        return MaxCard(rng.randint(0, 3), _random_role(rng, dims),
                       _random_tree(rng, dims, depth - 1))
    children = tuple(_random_tree(rng, dims, depth - 1)
                     for _ in range(rng.randint(2, 3)))
    return And(children) if k == "and" else Or(children)


def random_concept(rng, dims: ConceptDims = ConceptDims(), depth: int = 4,
                   canonical: bool = True):
    c = _random_tree(rng, dims, depth)
    return canonicalize(c) if canonical else c


def random_permutable_concept(rng, dims: ConceptDims = ConceptDims()):
    """Root is always a connective; at most 3 connective nodes of arity <= 3,
    so the full permutation set stays enumerable (<= 216 variants)."""
    budget = [rng.randint(1, 3)]

    def build(depth, force_connective=False):
        if not force_connective and (depth == 0 or budget[0] == 0
                                     or rng.random() < 0.45):
            leaf = _random_leaf(rng, dims)
            if dims.n_roles and rng.random() < 0.3:
                quant = Exists if rng.random() < 0.5 else Forall
                return quant(_random_role(rng, dims), leaf)
            return leaf
        budget[0] -= 1
        conn = And if rng.random() < 0.5 else Or
        arity = rng.choice([2, 2, 2, 3])
        return conn(tuple(build(depth - 1) for _ in range(arity)))

    return build(2, force_connective=True)


def all_child_orderings(c):
    """Every tree obtained by reordering the operands of each And/Or node."""
    t = type(c)
    if t in (Exists, Forall):
        for ch in all_child_orderings(c.child):
            yield t(c.role, ch)
    elif t in (MinCard, MaxCard):
        for ch in all_child_orderings(c.child):
            yield t(c.n, c.role, ch)
    elif t in (And, Or):
        variants = [list(all_child_orderings(ch)) for ch in c.children]
        for combo in itertools.product(*variants):
            for perm in itertools.permutations(combo):
                yield t(tuple(perm))
    else:
        yield c


def strict_subconcepts(c):
    """Every operand and filler of ``c``, recursively, outermost first."""
    t = type(c)
    if t in (Exists, Forall, MinCard, MaxCard):
        kids = (c.child,)
    elif t in (And, Or):
        kids = c.children
    else:
        return
    for ch in kids:
        yield ch
        yield from strict_subconcepts(ch)
