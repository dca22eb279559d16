import random

import pytest

from dlbeam.concept import (And, Atomic, BoolEq, ConceptParseError, DecodeError,
                            Exists, Forall, MaxCard, MinCard, NotAtomic,
                            NumGeq, NumLeq, Or, RoleExpr, StrEq, TOP, Top,
                            canonicalize, compare_canonical, concept_length,
                            decode, encode, fnv1a_64, hash_concept,
                            MAX_NESTING, parse_concept, render, sort_key)
from generators import (all_child_orderings, dims_of, random_concept,
                        random_permutable_concept)


# --- canonical form ---------------------------------------------------------

def test_canonicalize_sorts_operands():
    c = canonicalize(And((Atomic(1), Atomic(0))))
    assert c == And((Atomic(0), Atomic(1)))


def test_canonicalize_flattens_nested_connectives():
    c = canonicalize(And((Atomic(0), And((Atomic(2), Atomic(1))))))
    assert c == And((Atomic(0), Atomic(1), Atomic(2)))


def test_canonicalize_drops_duplicates_and_collapses():
    assert canonicalize(And((Atomic(0), Atomic(0)))) == Atomic(0)
    assert canonicalize(Or((TOP, TOP))) == TOP
    # Duplicates surviving alongside another operand still leave a connective.
    c = canonicalize(Or((Atomic(1), Atomic(0), Atomic(1))))
    assert c == Or((Atomic(0), Atomic(1)))


def test_canonicalize_recurses_through_quantifiers():
    inner = Or((Atomic(1), Atomic(0)))
    assert canonicalize(Exists(RoleExpr(0), inner)) == \
        Exists(RoleExpr(0), Or((Atomic(0), Atomic(1))))
    assert canonicalize(MinCard(2, RoleExpr(1, True), And((TOP, TOP)))) == \
        MinCard(2, RoleExpr(1, True), TOP)


def test_canonicalize_orders_constructor_ranks():
    # Thing < atomic < negation < exists < forall < cards < concrete < and < or
    kids = (Or((Atomic(0), Atomic(1))), NumGeq(0, 1.0), Forall(RoleExpr(0), TOP),
            NotAtomic(0), Atomic(0), TOP)
    c = canonicalize(And(kids))
    assert [type(ch) for ch in c.children] == \
        [Top, Atomic, NotAtomic, Forall, NumGeq, Or]


def test_canonicalize_idempotent_on_random_trees():
    rng = random.Random(101)
    for _ in range(300):
        c = canonicalize(random_concept(rng, canonical=False))
        assert canonicalize(c) == c


def test_permutations_share_canonical_form_and_hash():
    rng = random.Random(102)
    for _ in range(150):
        c = random_permutable_concept(rng)
        canon = canonicalize(c)
        want = hash_concept(canon)
        for variant in all_child_orderings(c):
            v = canonicalize(variant)
            assert v == canon
            assert hash_concept(v) == want


def test_sort_key_is_a_total_order():
    rng = random.Random(103)
    pool = [random_concept(rng) for _ in range(120)]
    for _ in range(400):
        a, b = rng.choice(pool), rng.choice(pool)
        assert compare_canonical(a, b) == -compare_canonical(b, a)
        if compare_canonical(a, b) == 0:
            assert a == b  # on canonical concepts the order separates trees
    ordered = sorted(pool, key=sort_key)
    for x, y in zip(ordered, ordered[1:]):
        assert compare_canonical(x, y) <= 0


def test_invalid_constructor_arguments():
    with pytest.raises(ValueError):
        MinCard(0, RoleExpr(0), TOP)
    with pytest.raises(ValueError):
        MaxCard(-1, RoleExpr(0), TOP)
    with pytest.raises(ValueError):
        And(())
    with pytest.raises(ValueError):
        NumGeq(0, float("nan"))


# --- length -----------------------------------------------------------------

def test_concept_length_examples():
    assert concept_length(TOP) == 1
    assert concept_length(Atomic(3)) == 1
    assert concept_length(NotAtomic(3)) == 2
    assert concept_length(Exists(RoleExpr(0), TOP)) == 3
    assert concept_length(Exists(RoleExpr(0, True), TOP)) == 4  # inverse marker
    assert concept_length(Forall(RoleExpr(1), Atomic(0))) == 3
    assert concept_length(MinCard(2, RoleExpr(0), TOP)) == 4
    assert concept_length(MaxCard(0, RoleExpr(0, True), Atomic(1))) == 5
    assert concept_length(NumGeq(0, 2.0)) == 1
    assert concept_length(And((Atomic(0), Atomic(1)))) == 3
    assert concept_length(Or((Atomic(0), Atomic(1), Atomic(2)))) == 5
    nested = Exists(RoleExpr(0), And((Atomic(1), Atomic(2))))
    assert concept_length(nested) == 5


def test_concept_length_matches_independent_count():
    def count(c):
        t = type(c)
        if t in (Top, Atomic, BoolEq, NumGeq, NumLeq, StrEq):
            return 1
        if t is NotAtomic:
            return 2
        if t in (Exists, Forall):
            return 2 + int(c.role.inverse) + count(c.child)
        if t in (MinCard, MaxCard):
            return 3 + int(c.role.inverse) + count(c.child)
        return len(c.children) - 1 + sum(count(ch) for ch in c.children)

    rng = random.Random(104)
    for _ in range(300):
        c = random_concept(rng)
        assert concept_length(c) == count(c)


# --- binary codec -----------------------------------------------------------

# Byte layouts computed by hand from the tag table before the codec existed.
FROZEN_ENCODINGS = [
    (TOP, "00"),
    (Atomic(3), "0100000003"),
    (NotAtomic(0), "0200000000"),
    (Exists(RoleExpr(2, True), Atomic(1)), "0301000000020100000001"),
    (Forall(RoleExpr(0), TOP), "040000000000" + "00"),
    (MinCard(2, RoleExpr(0), TOP), "050002000000000000"),
    (MaxCard(1, RoleExpr(3, True), Atomic(0)), "06000101000000030100000000"),
    (And((Atomic(0), Exists(RoleExpr(1), TOP))), "07000201000000000300000000" + "0100"),
    (Or((Atomic(0), Atomic(1))), "0800020100000000" + "0100000001"),
    (BoolEq(1, True), "090000000101"),
    (NumGeq(0, 1.5), "0a000000003ff8000000000000"),
    (NumLeq(2, -2.0), "0b00000002c000000000000000"),
    (StrEq(0, 2), "0c0000000000000002"),
]


@pytest.mark.parametrize("concept,hexbytes", FROZEN_ENCODINGS,
                         ids=[h for _, h in FROZEN_ENCODINGS])
def test_frozen_encodings(concept, hexbytes):
    data = bytes.fromhex(hexbytes)
    assert encode(concept) == data
    assert decode(data) == concept


def test_codec_round_trip_random():
    rng = random.Random(105)
    for _ in range(500):
        c = random_concept(rng)
        assert decode(encode(c)) == c


BAD_ENCODINGS = [
    ("", "empty"),
    ("0d", "unknown tag"),
    ("01000000", "truncated id"),
    ("030000000000", "missing quantifier child"),
    ("03020000000000", "bad inverse flag"),
    ("050000000000000000", "MinCard n=0"),
    ("0700010100000000", "single-operand connective"),
    ("070000", "zero-operand connective"),
    # operands out of canonical order (Exists before Atomic)
    ("07000203000000000001" + "00000000", "unsorted operands"),
    # duplicate operands
    ("0700020100000001" + "0100000001", "duplicate operands"),
    # Or nested directly inside Or
    ("080002000800020100000000" + "0100000001", "unflattened connective"),
    ("09000000000 2".replace(" ", ""), "boolean value 2"),
    ("0a000000007ff8000000000000", "NaN numeric bound"),
    ("0000", "trailing bytes"),
]


@pytest.mark.parametrize("hexbytes,label", BAD_ENCODINGS,
                         ids=[label for _, label in BAD_ENCODINGS])
def test_decode_rejects(hexbytes, label):
    with pytest.raises(DecodeError):
        decode(bytes.fromhex(hexbytes))


def nested_exists_encoding(depth: int) -> bytes:
    """``depth`` levels: Exists(r0, ...) around Thing, depth - 1 times."""
    return bytes.fromhex("030000000000") * (depth - 1) + bytes.fromhex("00")


def test_decode_rejects_nesting_deeper_than_the_limit():
    c = decode(nested_exists_encoding(MAX_NESTING))
    assert concept_length(c) == 2 * MAX_NESTING - 1
    with pytest.raises(DecodeError, match="nested deeper than"):
        decode(nested_exists_encoding(MAX_NESTING + 1))
    data = nested_exists_encoding(5_001)  # 30 KB
    assert len(data) == 30_001
    with pytest.raises(DecodeError, match="nested deeper than"):
        decode(data)


def test_decode_rejects_single_byte_corruptions_of_valid_encodings():
    rng = random.Random(106)
    for _ in range(60):
        c = random_concept(rng)
        data = bytearray(encode(c))
        pos = rng.randrange(len(data))
        old = data[pos]
        data[pos] = (old + rng.randint(1, 255)) % 256
        try:
            got = decode(bytes(data))
        except DecodeError:
            continue
        # A flip may still be a valid encoding (e.g. another class id), but
        # it must then decode to a *different* canonical concept.
        assert got != c


# --- hashing ----------------------------------------------------------------

def test_fnv1a_64_reference_vectors():
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8


def test_hash_of_thing_is_frozen():
    # FNV-1a over the one-byte encoding 0x00.
    assert encode(TOP) == b"\x00"
    assert hash_concept(TOP) == 0xAF63BD4C8601B7DF


def test_hash_is_fnv_of_encoding():
    rng = random.Random(107)
    for _ in range(200):
        c = random_concept(rng)
        assert hash_concept(c) == fnv1a_64(encode(c))


def test_no_hash_collisions_in_sample():
    rng = random.Random(108)
    seen = {}
    for _ in range(5000):
        c = random_concept(rng)
        enc = encode(c)
        h = hash_concept(c)
        if h in seen:
            assert seen[h] == enc
        seen[h] = enc


# --- stored facts -----------------------------------------------------------

def test_stored_facts_equal_a_fresh_computation():
    rng = random.Random(9002)  # the concepts of the permutation acceptance gate
    for _ in range(10_000):
        c = canonicalize(random_permutable_concept(rng))
        twin = decode(encode(c))  # equal, built separately, no facts yet
        assert twin is not c or c is TOP  # decode returns the one Thing
        # The stored facts take no part in equality, hash() or repr.
        assert c == twin and hash(c) == hash(twin) and repr(c) == repr(twin)
        first = (hash_concept(c), concept_length(c), sort_key(c))
        second = (hash_concept(c), concept_length(c), sort_key(c))
        assert sort_key(c) is first[2]  # read back, not rebuilt
        fresh = (fnv1a_64(encode(c)), concept_length(twin), sort_key(twin))
        assert first == second == fresh
        assert c == twin and hash(c) == hash(twin) and repr(c) == repr(twin)


def test_canonicalize_returns_a_canonical_concept_itself():
    rng = random.Random(109)
    for _ in range(500):
        raw = random_concept(rng, canonical=False)
        c = canonicalize(raw)
        assert canonicalize(c) is c
        assert (c is raw) == (c == raw)  # a canonical input comes back as is


# --- text form --------------------------------------------------------------

def test_render_examples(trains):
    st = trains.st
    car = Atomic(st.class_names.id_of("Car"))
    closed = Atomic(st.class_names.id_of("ClosedCar"))
    has_car = RoleExpr(st.role_names.id_of("hasCar"))
    assert render(TOP, st) == "Thing"
    assert render(car, st) == "Car"
    assert render(NotAtomic(car.class_id), st) == "(not Car)"
    assert render(Exists(has_car, TOP), st) == "(hasCar some Thing)"
    assert render(Forall(RoleExpr(has_car.role_id, True), closed), st) == \
        "(inverse(hasCar) only ClosedCar)"
    assert render(MinCard(2, has_car, TOP), st) == "(hasCar min 2 Thing)"
    assert render(And((car, Exists(has_car, closed))), st) == \
        "(Car and (hasCar some ClosedCar))"


def test_parse_render_round_trip(trains):
    rng = random.Random(109)
    dims = dims_of(trains.kb)
    for _ in range(300):
        c = random_concept(rng, dims)
        text = render(c, trains.st)
        back = parse_concept(text, trains.st)
        assert back == c


def test_parse_without_canonicalizing(trains):
    c = parse_concept("(Car and Train)", trains.st)
    train = Atomic(trains.st.class_names.id_of("Train"))
    car = Atomic(trains.st.class_names.id_of("Car"))
    assert c == And((car, train))  # textual order kept
    assert canonicalize(c) == And((train, car))  # Train has the lower id


@pytest.mark.parametrize("text,fragment", [
    ("Caboose", "unknown class 'Caboose'"),
    ("(hasCar sme Thing)", "must be followed by 'some'"),
    ("(Train and Car or Load)", "cannot mix"),
    ("(Train and", "expected a concept"),
    ("(inverse(nope) some Thing)", "unknown role 'nope'"),
    ("(hasCar min 1.5 Thing)", "cardinality must be an integer"),
    ("(hasCar min 0 Thing)", "MinCard requires n >= 1"),
    ("(hasCar some Thing) Train", "trailing input"),
    ("(hasCar >= 3)", "unknown numeric role"),
    ('(hasCar = "abc', "unterminated string"),
])
def test_parse_errors(trains, text, fragment):
    with pytest.raises(ConceptParseError) as exc:
        parse_concept(text, trains.st)
    assert fragment in str(exc.value)
    assert "^" in str(exc.value)  # caret line present


def test_parse_error_caret_position(trains):
    with pytest.raises(ConceptParseError) as exc:
        parse_concept("(Train and Caboose)", trains.st)
    assert exc.value.pos == len("(Train and ")
    # An error inside a cardinality restriction keeps its own caret.
    text = "(hasCar min 2 (Car and Caboose))"
    with pytest.raises(ConceptParseError) as exc:
        parse_concept(text, trains.st)
    assert exc.value.pos == len("(hasCar min 2 (Car and ")
    assert str(exc.value).count(text) == 1


def nested_exists_text(depth: int) -> str:
    """``depth`` levels: (hasCar some ...) around Thing, depth - 1 times."""
    return "(hasCar some " * (depth - 1) + "Thing" + ")" * (depth - 1)


def test_parse_rejects_nesting_deeper_than_the_limit(trains):
    c = parse_concept(nested_exists_text(MAX_NESTING), trains.st)
    assert concept_length(c) == 2 * MAX_NESTING - 1
    assert parse_concept(render(c, trains.st), trains.st) == c
    for depth in (MAX_NESTING + 1, 5_001):
        with pytest.raises(ConceptParseError, match="nested deeper than"):
            parse_concept(nested_exists_text(depth), trains.st)
