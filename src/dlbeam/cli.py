"""Command-line entry points: learn, eval, stats, master, worker.

Exit codes: 0 solved or search space exhausted, 1 input error, 2 time budget
exceeded, 3 cluster failure.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from .cluster import (ClusterError, MasterConfig, WorkerServer,
                      DEFAULT_TCP_PORT, DEFAULT_UDP_PORT, run_master)
from .concept import (ConceptParseError, canonicalize, concept_length,
                      parse_concept, render)
from .evaluation import Evaluator, accuracy, evaluate
from .kb import (KbError, compute_statistics, materialize, parse_examples,
                 parse_kb)
from .refine import Refiner, build_mb, top_context
from .search import (SearchConfig, SearchNode, SearchResult, SearchSettings,
                     run_search)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_CLUSTER = 3


class UsageError(Exception):
    """A flag whose value is out of range."""


def _build(cls, **kwargs):
    """``cls(**kwargs)``, with a rejected value reported as a usage error."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _read(path: str) -> str:
    """The UTF-8 text of ``path``, less a leading byte-order mark: the text
    that ``utf-8-sig`` decodes, with a bad byte's offset counted from the
    start of the file, mark included."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read().removeprefix("\ufeff")
    except OSError as exc:
        raise KbError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise KbError(f"{path}: not UTF-8 text (byte {exc.start}: "
                      f"{exc.reason})") from None


def _load(args):
    """The symbols, materialized KB and examples that ``args`` names."""
    st_sym, kb = parse_kb(_read(args.kb))
    examples = parse_examples(_read(args.examples), st_sym)
    materialize(kb, st_sym)
    return st_sym, kb, examples


def _search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--limit", type=int, default=1, help="hypotheses to report")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--max-length", type=int, default=10)
    p.add_argument("--max-millis", type=int, default=None)
    p.add_argument("--target-accuracy", type=float, default=1.0)
    p.add_argument("--no-disjunction", action="store_true")
    p.add_argument("--no-cardinality", action="store_true")
    p.add_argument("--no-inverse", action="store_true")
    p.add_argument("--no-negation", action="store_true")
    p.add_argument("--json", action="store_true", help="JSON-lines output")


def _search_settings(args) -> dict:
    """The ``SearchSettings`` keyword arguments of the ``_search_flags``."""
    return dict(limit=args.limit, noise=args.noise, max_millis=args.max_millis,
                max_length=args.max_length,
                target_accuracy=args.target_accuracy,
                use_inverse_roles=not args.no_inverse,
                use_cardinality=not args.no_cardinality,
                use_disjunction=not args.no_disjunction,
                use_negation=not args.no_negation)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dlbeam",
                                 description="beam-search learner for "
                                             "description-logic class expressions")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="learn a class expression from examples")
    p.add_argument("kb")
    p.add_argument("examples")
    p.add_argument("--beam", type=int, default=1, help="beam width")
    _search_flags(p)

    p = sub.add_parser("eval", help="evaluate one concept against examples")
    p.add_argument("kb")
    p.add_argument("examples")
    p.add_argument("concept")

    p = sub.add_parser("stats", help="print dataset statistics")
    p.add_argument("kb")
    p.add_argument("examples", nargs="?", default=None)

    p = sub.add_parser("master", help="run the cluster master")
    p.add_argument("kb")
    p.add_argument("examples")
    p.add_argument("--broadcast-port", type=int, default=DEFAULT_UDP_PORT)
    p.add_argument("--discovery-millis", type=int, default=2000)
    p.add_argument("--expect-workers", type=int, default=None)
    p.add_argument("--worker-endpoint", action="append", default=[],
                   metavar="HOST:PORT", help="directly pinged worker (repeatable)")
    p.add_argument("--io-timeout", type=float, default=60.0, metavar="SECONDS",
                   help="drop a worker that sends nothing for this long")
    _search_flags(p)

    p = sub.add_parser("worker", help="run a worker until interrupted")
    p.add_argument("--port", type=int, default=DEFAULT_TCP_PORT)
    p.add_argument("--broadcast-port", type=int, default=DEFAULT_UDP_PORT)
    p.add_argument("--host", default="0.0.0.0")
    p.add_argument("--cores", type=int, default=None)
    # Has no effect. Only bench/ passes it; the benchmark change of ROADMAP
    # item 1 deletes it.
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    return ap


def _report(result: SearchResult, st_sym, examples, as_json: bool) -> None:
    if as_json:
        for i, it in enumerate(result.iterations):
            print(json.dumps({"type": "iteration", "index": i,
                              "expanded": it.expanded, "generated": it.generated,
                              "redundant_dropped": it.redundant_dropped,
                              "weak_dropped": it.weak_dropped,
                              "st_size": it.st_size,
                              "elapsed_millis": it.elapsed_millis}))
        print(json.dumps({"type": "result", "status": result.status,
                          "wall_millis": result.wall_millis,
                          "hypotheses": [_hypo_json(n, st_sym) for n in result.hypotheses]}))
        return
    print(f"status: {result.status}")
    print(f"wall millis: {result.wall_millis}")
    print(f"iterations: {len(result.iterations)}")
    npos, nneg = examples.pos_count, examples.neg_count
    print("hypotheses:")
    for rank, n in enumerate(result.hypotheses, start=1):
        print(f"  {rank}. {render(n.concept, st_sym)}"
              f"  pos={n.coverage.pos_covered}/{npos}"
              f" neg={n.coverage.neg_covered}/{nneg}"
              f" acc={n.score.accuracy:.3f}"
              f" len={concept_length(n.concept)}"
              f" score={n.score.value:.4f}")


def _hypo_json(n: SearchNode, st_sym) -> dict:
    return {"concept": render(n.concept, st_sym),
            "pos_covered": n.coverage.pos_covered,
            "neg_covered": n.coverage.neg_covered,
            "accuracy": n.score.accuracy,
            "length": concept_length(n.concept),
            "score": n.score.value}


def _status_code(status: str) -> int:
    if status == "budget":
        return EXIT_BUDGET
    if status == "failed":
        return EXIT_CLUSTER
    return EXIT_OK


def cmd_learn(args) -> int:
    cfg = _build(SearchConfig, beam_width=args.beam, **_search_settings(args))
    st_sym, kb, examples = _load(args)
    result = run_search(kb, examples, cfg)
    _report(result, st_sym, examples, args.json)
    return _status_code(result.status)


def cmd_eval(args) -> int:
    st_sym, kb, examples = _load(args)
    concept = canonicalize(parse_concept(args.concept, st_sym))
    cov = evaluate(concept, kb, examples)
    print(f"concept: {render(concept, st_sym)}")
    print(f"pos covered: {cov.pos_covered}/{examples.pos_count}")
    print(f"neg covered: {cov.neg_covered}/{examples.neg_count}")
    print(f"accuracy: {accuracy(cov, examples):.4f}")
    return EXIT_OK


def cmd_stats(args) -> int:
    st_sym, kb = parse_kb(_read(args.kb))
    n_class, n_role, n_concrete = kb.assertion_counts()
    n_concrete_roles = (kb.num_numeric_roles + kb.num_boolean_roles
                        + kb.num_string_roles)
    print(f"classes: {kb.num_classes}")
    print(f"roles: {kb.num_roles}")
    print(f"concrete roles: {n_concrete_roles}")
    print(f"individuals: {kb.num_individuals}")
    print(f"class assertions: {n_class}")
    print(f"role assertions: {n_role}")
    print(f"concrete assertions: {n_concrete}")
    print(f"subclass axioms: {len(kb.subclass_edges)}")
    print(f"subrole axioms: {len(kb.subrole_edges)}")
    if args.examples is not None:
        examples = parse_examples(_read(args.examples), st_sym)
        print(f"positive examples: {examples.pos_count}")
        print(f"negative examples: {examples.neg_count}")
        # What a search's top level may name: the roles of its context.
        materialize(kb, st_sym)
        evaluator = Evaluator(kb, examples)
        space = evaluator.space
        context = top_context(space)
        roles = sum(not r.inverse for r in context.roles)
        print(f"roles with an example subject: {roles}")
        print(f"inverse roles with an example subject: "
              f"{len(context.roles) - roles}")
        # How evaluation lays out each such role's successors (see
        # evaluation.Chunks): examples with more than the chunks' depth are
        # counted outside them.
        for inverse, per_role in enumerate(space.chunks):
            for rid, chunks in enumerate(per_role):
                if chunks is not None:
                    name = st_sym.role_names.name_of(rid)
                    print(f"successors over "
                          f"{f'inverse({name})' if inverse else name}: "
                          f"at most {chunks.most} per example, chunk depth "
                          f"{len(chunks.present)}, "
                          f"{len(chunks.heavy_rows)} examples counted outside")
        print(f"concrete roles with an example subject: "
              f"{len(context.bools) + len(context.nums) + len(context.strs)}")
        # The rule-1 atoms that a search pairs into unions. A union with an
        # operand that covers no positive example is dropped as dominated.
        stats = compute_statistics(kb)
        refiner = Refiner(kb, stats, build_mb(kb, stats), SearchSettings())
        atoms = refiner.atoms(sys.maxsize, context)
        dead = sum(evaluator.count(a).pos_covered == 0 for a in atoms)
        print(f"top-level atoms covering no positive example: "
              f"{dead} of {len(atoms)}")
    return EXIT_OK


def cmd_master(args) -> int:
    endpoints = []
    for spec_str in args.worker_endpoint:
        host, _, port = spec_str.rpartition(":")
        if not host or not port.isdigit():
            raise KbError(f"bad worker endpoint {spec_str!r} (want HOST:PORT)")
        endpoints.append((host, int(port)))
    cfg = _build(
        MasterConfig, **_search_settings(args),
        udp_port=args.broadcast_port,
        worker_endpoints=tuple(endpoints),
        discovery_millis=args.discovery_millis,
        expect_workers=args.expect_workers,
        io_timeout=args.io_timeout)
    st_sym, kb, examples = _load(args)
    result = run_master(kb, st_sym, examples, cfg)
    _report(result, st_sym, examples, args.json)
    if args.json:
        print(json.dumps({"type": "handshake",
                          "handshake_millis": result.handshake_millis}))
        for w in result.workers:
            print(json.dumps({"type": "worker",
                              "address": f"{w.address[0]}:{w.address[1]}",
                              "cores": w.cores,
                              "kb_ack_millis": w.kb_ack_millis}))
        for d in result.dropped:
            print(json.dumps({"type": "worker_dropped",
                              "address": f"{d.address[0]}:{d.address[1]}",
                              "iteration": d.iteration, "cause": d.cause}))
    else:
        print(f"handshake millis: {result.handshake_millis}")
        for w in result.workers:
            print(f"worker {w.address[0]}:{w.address[1]} cores={w.cores}"
                  f" kb_ack_millis={w.kb_ack_millis}")
        for d in result.dropped:
            print(f"worker {d.address[0]}:{d.address[1]} dropped in iteration"
                  f" {d.iteration}: {d.cause}")
    return _status_code(result.status)


def cmd_worker(args) -> int:
    if args.threads < 1:
        raise UsageError(f"threads must be >= 1, got {args.threads}")
    try:
        server = _build(WorkerServer, host=args.host, tcp_port=args.port,
                        udp_port=args.broadcast_port, cores=args.cores).start()
    except OSError as exc:
        raise UsageError(f"cannot listen on {args.host}: "
                         f"{exc.strerror or exc}") from None
    print(f"worker listening on tcp {server.tcp_port}, udp {server.udp_port}",
          flush=True)
    stop = {"flag": False}

    def handle(_sig, _frame):
        stop["flag"] = True

    signal.signal(signal.SIGINT, handle)
    signal.signal(signal.SIGTERM, handle)
    try:
        while not stop["flag"]:
            signal.pause()
    except KeyboardInterrupt:
        pass
    server.stop()
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "learn":
            return cmd_learn(args)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "stats":
            return cmd_stats(args)
        if args.command == "master":
            return cmd_master(args)
        if args.command == "worker":
            return cmd_worker(args)
    except (KbError, ConceptParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ClusterError as exc:
        print(f"cluster error: {exc}", file=sys.stderr)
        return EXIT_CLUSTER
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
