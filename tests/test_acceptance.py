"""End-to-end acceptance checks, one per release gate.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to watch
them stream).
"""

import random
import time
from concurrent.futures import ThreadPoolExecutor

from dlbeam.cluster import (MasterConfig, WorkerServer, MSG_ERROR, MSG_HELLO,
                            MSG_EXPAND_TASK, MSG_KB_TRANSFER, ProtocolError,
                            frame_bytes, parse_frame, run_master)
from dlbeam.concept import (And, Atomic, Exists, MinCard, RoleExpr, TOP,
                            canonicalize, decode, encode, hash_concept,
                            render)
from dlbeam.evaluation import covered_set, evaluate, evaluate_batch
from dlbeam.kb import (ExampleSet, KbCodecError, KnowledgeBase, SymbolTable,
                       deserialize_kb, materialize, serialize_kb)
from dlbeam.search import SearchConfig, reduce_redundant, run_search

from generators import (ConceptDims, all_child_orderings, dims_of,
                        random_concept, random_kb, random_permutable_concept,
                        tiny_kb)
from naive_oracle import naive_covered_set


def report(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {name}: {verdict}{suffix}", flush=True)
    assert ok, f"{name}: {verdict}{suffix}"


def test_01_bitset_semantics_match_naive_interpreter():
    rng = random.Random(9001)
    t0 = time.perf_counter()
    mismatches = checks = 0
    for _ in range(1000):
        st, kb = random_kb(rng)
        dims = dims_of(kb)
        for _ in range(3):
            c = random_concept(rng, dims, depth=4)
            fast = {int(i) for i in covered_set(c, kb).nonzero()[0]}
            if fast != naive_covered_set(c, kb):
                mismatches += 1
            checks += 1
    elapsed = time.perf_counter() - t0
    report("bitset-vs-naive-oracle", mismatches == 0 and elapsed < 60,
           f"{checks} concept/KB checks, {mismatches} mismatches, {elapsed:.1f}s")


def test_02_operand_order_never_changes_tree_or_hash():
    rng = random.Random(9002)
    t0 = time.perf_counter()
    bad = variants = 0
    for _ in range(10_000):
        seed_concept = random_permutable_concept(rng)
        want = canonicalize(seed_concept)
        want_hash = hash_concept(want)
        for reordered in all_child_orderings(seed_concept):
            variants += 1
            got = canonicalize(reordered)
            if got != want or hash_concept(got) != want_hash:
                bad += 1
    elapsed = time.perf_counter() - t0
    report("permutation-invariant-canonical-form", bad == 0,
           f"10000 concepts, {variants} orderings, {bad} divergent, {elapsed:.1f}s")


def _threaded_staged_reduce(per_slot, rht, pool_size):
    """reduce_redundant's merge schedule, but with the stage merges actually
    running on a pool; the result must not depend on pool size."""
    stages = [[(c, hash_concept(c), i) for c in refs]
              for i, (refs, _closed) in enumerate(per_slot)]

    def merge(pair):
        a, b = pair
        seen = {h for _, h, _ in a}
        return a + [t for t in b if t[1] not in seen]

    with ThreadPoolExecutor(max_workers=pool_size) as pool:
        while len(stages) > 1:
            pairs = [(stages[i], stages[i + 1])
                     for i in range(0, len(stages) - 1, 2)]
            merged = list(pool.map(merge, pairs))
            if len(stages) % 2:
                merged.append(stages[-1])
            stages = merged
    out, taken = [], set()
    for c, h, slot in (stages[0] if stages else []):
        if h in rht or h in taken:
            continue
        taken.add(h)
        out.append((c, h, slot))
    return out


def test_03_thread_counts_change_nothing(trains):
    rng = random.Random(9003)
    dims = dims_of(trains.kb)
    unique = [random_concept(rng, dims, depth=3) for _ in range(300)]
    batch = [rng.choice(unique) for _ in range(500)]  # duplicates on purpose

    # The batch, whole or cut into contiguous chunks that each get a fresh
    # memo, as the blocks of the workers of a cluster run do.
    per_concept = [evaluate(c, trains.kb, trains.examples) for c in batch]
    eval_ok = evaluate_batch(batch, trains.kb, trains.examples,
                             memo={}) == per_concept
    for n in (2, 4, 8):
        step = -(-len(batch) // n)
        chunked = []
        for lo in range(0, len(batch), step):
            chunked += evaluate_batch(batch[lo:lo + step], trains.kb,
                                      trains.examples, memo={})
        eval_ok = eval_ok and chunked == per_concept

    chunk = len(batch) // 8
    per_slot = [(batch[i * chunk:(i + 1) * chunk], set()) for i in range(8)]
    rht = {hash_concept(c) for c in batch[:40]}
    expected = reduce_redundant(per_slot, rht=set(rht))
    reduce_ok = all(
        _threaded_staged_reduce(per_slot, set(rht), pool_size=t) == expected
        for t in (1, 2, 4, 8))

    report("chunk-invariant-batch-eval-and-thread-invariant-reduce",
           eval_ok and reduce_ok,
           f"500-concept batch, eval {'ok' if eval_ok else 'DIVERGED'}, "
           f"reduce {'ok' if reduce_ok else 'DIVERGED'}")


def _loopback_cluster_search(trains, cores: list[int], **cfg):
    """run_master over one in-process loopback worker per entry of cores."""
    workers = [WorkerServer(udp_port=0, cores=c, io_timeout=30).start()
               for c in cores]
    try:
        return run_master(trains.kb, trains.st, trains.examples, MasterConfig(
            broadcast_addrs=(),
            worker_endpoints=tuple(("127.0.0.1", w.udp_port) for w in workers),
            discovery_millis=3000, expect_workers=len(workers), **cfg))
    finally:
        for w in workers:
            w.stop()


def test_04_parallel_search_equals_sequential_search(trains):
    t0 = time.perf_counter()
    local = run_search(trains.kb, trains.examples,
                       SearchConfig(beam_width=4, max_length=7),
                       stats=trains.stats, mb=trains.mb)
    best = local.hypotheses[0]
    quality = (best.score.accuracy == 1.0
               and best.coverage.pos_covered == 5
               and best.coverage.neg_covered == 0)
    same = True
    for cores in ([4], [2, 2], [1, 1, 1, 1]):
        res = _loopback_cluster_search(trains, cores, max_length=7)
        b = res.hypotheses[0]
        same = (same and res.st_insertions == local.st_insertions
                and b.score == best.score and b.coverage == best.coverage)
    elapsed = time.perf_counter() - t0
    report("search-worker-count-equivalence",
           same and quality and elapsed < 30,
           f"1, 2 and 4 workers of total beam 4 equal the local search: "
           f"{len(local.st_insertions)} scored insertions identical, "
           f"best acc={best.score.accuracy}, "
           f"covers {best.coverage.pos_covered}+/{best.coverage.neg_covered}-, "
           f"{elapsed:.1f}s")


def test_05_no_hash_evaluated_twice(trains):
    # quiescence run: target accuracy 2.0 is unreachable, so the search only
    # stops once every node is fully expanded
    cfg = SearchConfig(beam_width=4, max_length=6, target_accuracy=2.0)
    res = run_search(trains.kb, trains.examples, cfg,
                     stats=trains.stats, mb=trains.mb)
    unique = len(set(res.evaluated_hashes)) == len(res.evaluated_hashes)
    closed = set(res.evaluated_hashes) == res.rht
    report("no-reevaluation-on-full-run",
           res.status == "exhausted" and unique and closed,
           f"{len(res.evaluated_hashes)} evaluations, all distinct, "
           f"RHT in sync, {len(res.iterations)} iterations")


def test_06_codecs_round_trip_and_reject_corruption():
    rng = random.Random(9006)
    t0 = time.perf_counter()

    concept_bad = 0
    for _ in range(10_000):
        c = random_concept(rng, ConceptDims(), depth=4)
        blob = encode(c)
        if decode(blob) != c or encode(decode(blob)) != blob:
            concept_bad += 1

    kb_bad = 0
    kb_blobs = []
    for _ in range(10_000):
        st, kb = tiny_kb(rng)
        blob = serialize_kb(kb, st)
        st2, kb2 = deserialize_kb(blob)
        if serialize_kb(kb2, st2) != blob:
            kb_bad += 1
        kb_blobs.append(blob)

    frame_bad = 0
    frames = []
    for _ in range(10_000):
        mtype = rng.choice([MSG_HELLO, MSG_KB_TRANSFER, MSG_EXPAND_TASK, MSG_ERROR])
        payload = rng.randbytes(rng.randint(0, 64))
        data = frame_bytes(mtype, payload)
        if parse_frame(data) != (mtype, payload):
            frame_bad += 1
        frames.append(data)

    survived_flips = 0
    for _ in range(1500):
        data = bytearray(rng.choice(frames))
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        try:
            parse_frame(bytes(data))
            survived_flips += 1
        except ProtocolError:
            pass
    for _ in range(1500):
        data = bytearray(rng.choice(kb_blobs))
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        try:
            deserialize_kb(bytes(data))
            survived_flips += 1
        except KbCodecError:
            pass

    elapsed = time.perf_counter() - t0
    report("codec-fidelity",
           concept_bad == kb_bad == frame_bad == survived_flips == 0,
           f"3x10000 round-trips bit-exact, 3000 bit flips rejected, "
           f"{elapsed:.1f}s")


def test_07_cluster_matches_single_machine(trains):
    t0 = time.perf_counter()
    cluster = _loopback_cluster_search(trains, [2, 2], max_length=6,
                                       target_accuracy=2.0)
    total_wn = sum(w.cores for w in cluster.workers)
    local = run_search(trains.kb, trains.examples,
                       SearchConfig(beam_width=total_wn, max_length=6,
                                    target_accuracy=2.0),
                       stats=trains.stats, mb=trains.mb)
    elapsed = time.perf_counter() - t0
    cb, lb = cluster.hypotheses[0], local.hypotheses[0]
    same_best = cb.score.value == lb.score.value and cb.concept == lb.concept
    same_rht = cluster.rht == local.rht
    report("cluster-equals-local", same_best and same_rht and elapsed < 60,
           f"BW={total_wn} from 2 workers, best "
           f"{render(cb.concept, trains.st)!r} on both sides, "
           f"RHT {len(cluster.rht)} hashes identical, {elapsed:.1f}s")


def _synthetic_kb(n_individuals: int):
    st, kb = SymbolTable(), KnowledgeBase()
    for i in range(4):
        st.class_names.intern(f"K{i}")
        kb.add_class()
    st.role_names.intern("r")
    kb.add_role()
    kb.add_subclass(1, 0)
    kb.add_subclass(2, 0)
    for i in range(n_individuals):
        st.individual_names.intern(f"x{i}")
        kb.add_individual()
    for x in range(n_individuals):
        kb.add_instance(x & 3, x)
        if x % 5 == 0:
            kb.add_instance(3, x)
        if x % 2 == 0:
            kb.add_fact(0, x, (x * 7919 + 13) % n_individuals)
            kb.add_fact(0, x, (x + 1) % n_individuals)
    materialize(kb, st)
    return st, kb


def test_08_batch_evaluation_at_scale_matches_memo_free_evaluation():
    n = 120_000
    st, kb = _synthetic_kb(n)
    examples = ExampleSet.from_ids(n, list(range(0, 4000, 2)),
                                   list(range(1, 4000, 2)))
    r = RoleExpr(0)
    batch = []
    for cls in range(4):
        batch += [Atomic(cls),
                  Exists(r, Atomic(cls)),
                  Exists(RoleExpr(0, inverse=True), Atomic(cls)),
                  MinCard(2, r, Atomic(cls)),
                  And((Atomic(cls), Exists(r, TOP)))]
    batch *= 4  # 80 evaluations, each distinct concept four times

    t0 = time.perf_counter()
    memo_free = [evaluate(c, kb, examples, keep_set=True) for c in batch]
    t1 = time.perf_counter()
    batched = evaluate_batch(batch, kb, examples, keep_sets=True, memo={})
    t2 = time.perf_counter()
    report("batch-eval-at-scale", batched == memo_free,
           f"{n} individuals, {len(batch)} concepts bit-identical with and "
           f"without a memo, memo-free {t1 - t0:.2f}s vs one memo "
           f"{t2 - t1:.2f}s")
