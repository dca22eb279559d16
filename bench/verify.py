"""Checks on the output of every benchmark search.

``check`` returns a list of problems instead of raising, so that a failed
run is counted toward ``failure_rate`` and the remaining runs still happen.

Coverage of the best hypothesis is re-derived with the per-individual
interpreter in ``tests/naive_oracle.py``, which shares no code with the
numpy evaluator. The interpreter scans every assertion of a role for each
filler lookup, which is too slow on tens of thousands of individuals, so
each example is interpreted on its own connected component of the role
graph. That is exact under closed-world semantics: every constructor either
reads the individual's own assertions or follows role edges in one of their
two directions, so it never leaves the component.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace


@dataclass(frozen=True)
class Reference:
    """What a verified run must reproduce: its closed list and best node.

    Kept instead of the whole result, so that the benchmark holds few objects
    that the collector traverses during the timed searches."""
    rht: frozenset
    best_concept: object
    best_value: float

    @classmethod
    def of(cls, result) -> "Reference":
        best = result.hypotheses[0]
        return cls(frozenset(result.rht), best.concept, best.score.value)


class OracleCheck:
    """Re-derives the coverage of a concept over the examples of one input.

    Results are cached per concept. The per-component tables are rebuilt for
    each new concept rather than kept, so that they do not sit in memory
    during the timed searches."""

    def __init__(self, oracle):
        self.oracle = oracle
        self._cache: dict = {}

    def coverage(self, concept, ready) -> tuple[int, int]:
        """(covered positives, covered negatives) by the naive interpreter."""
        if concept not in self._cache:
            ex = ready.examples
            covered = {x for x, view in _component_views(ready).items()
                       if self.oracle.satisfies(concept, view, x)}
            self._cache[concept] = (len(covered & set(ex.pos_ids())),
                                    len(covered & set(ex.neg_ids())))
        return self._cache[concept]


def _component_views(ready) -> dict[int, SimpleNamespace]:
    kb, ex = ready.kb, ready.examples
    neighbours: dict[int, list[int]] = {}
    for pairs in kb.role_assertions:
        for s, o in pairs:
            neighbours.setdefault(s, []).append(o)
            neighbours.setdefault(o, []).append(s)
    component: dict[int, int] = {}
    for root in ex.pos_ids() + ex.neg_ids():
        if root in component:
            continue
        component[root] = root
        todo = [root]
        while todo:
            for y in neighbours.get(todo.pop(), ()):
                if y not in component:
                    component[y] = root
                    todo.append(y)

    def split(tables) -> dict[int, list[list]]:
        out = {r: [[] for _ in tables] for r in set(component.values())}
        for i, rows in enumerate(tables):
            for row in rows:
                root = component.get(row[0])
                if root is not None:
                    out[root][i].append(row)
        return out

    roles = split(kb.role_assertions)
    nums = split(kb.numeric_assertions)
    bools = split(kb.boolean_assertions)
    strs = split(kb.string_assertions)
    views = {}
    for x in ex.pos_ids() + ex.neg_ids():
        root = component[x]
        views[x] = SimpleNamespace(
            class_members=kb.class_members, role_assertions=roles[root],
            numeric_assertions=nums[root], boolean_assertions=bools[root],
            string_assertions=strs[root])
    return views


def check(result, ready, oracle: OracleCheck,
          reference: Reference | None = None) -> list[str]:
    """Problems with one search result; empty when it is correct.

    ``reference`` is what the run must reproduce: the first run of the same
    workload, or for the cluster the local search of the same inputs.
    """
    problems = []
    if result.status != "exhausted":
        problems.append(f"status {result.status!r}, want 'exhausted'")
    evaluated = getattr(result, "evaluated_hashes", None)
    if evaluated is not None:
        if len(set(evaluated)) != len(evaluated):
            problems.append("a concept hash was evaluated twice")
        if set(evaluated) != result.rht:
            problems.append("evaluated hashes differ from the closed list")
    if not result.hypotheses:
        return problems + ["no hypothesis returned"]
    best = result.hypotheses[0]
    if best.score.accuracy != 1.0:
        problems.append(f"best accuracy {best.score.accuracy}, want 1.0")
    want = (ready.examples.pos_count, 0)
    got = (best.coverage.pos_covered, best.coverage.neg_covered)
    naive = oracle.coverage(best.concept, ready)
    if got != want or naive != want:
        problems.append(f"best covers {got} (+, -), the naive interpreter "
                        f"{naive}, want {want}")
    if reference is not None:
        if result.rht != reference.rht:
            problems.append(f"closed list of {len(result.rht)} hashes differs "
                            f"from the reference's {len(reference.rht)}")
        if (best.concept, best.score.value) != (reference.best_concept,
                                                reference.best_value):
            problems.append("best hypothesis differs from the reference's")
    return problems
