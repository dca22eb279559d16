"""Class-expression trees: canonical form, ordering, codec, hashing, rendering.

Concepts are immutable trees in negation normal form (negation on atomic
classes only). Conjunction/disjunction operands are kept flattened,
deduplicated and sorted by a fixed total order, so syntactically different
spellings of the same expression share one canonical tree, one binary
encoding and one 64-bit hash.

Each concept object stores three facts about itself the first time they are
asked for: its hash (``hash_concept``), its length (``concept_length``) and
its canonical sort key (``sort_key``). They live in slots of the ``_Facts``
base class for as long as the object does, and take no part in equality,
``hash()``, ``repr`` or pickling. Since a concept never changes, a stored
fact always equals a fresh computation; an equal concept built separately
computes its own. ``canonicalize`` returns an already canonical concept
unchanged, so the facts of the objects the search passes around survive it.

``decode`` and ``parse_concept`` refuse trees nested deeper than
``MAX_NESTING`` levels with their own typed error, so untrusted bytes or
text can never drive the recursive walks into ``RecursionError``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Union

__all__ = [
    "RoleExpr",
    "Concept",
    "Top",
    "Atomic",
    "NotAtomic",
    "Exists",
    "Forall",
    "MinCard",
    "MaxCard",
    "BoolEq",
    "NumGeq",
    "NumLeq",
    "StrEq",
    "And",
    "Or",
    "TOP",
    "canonicalize",
    "compare_canonical",
    "sort_key",
    "encode",
    "decode",
    "DecodeError",
    "fnv1a_64",
    "hash_concept",
    "concept_length",
    "render",
    "parse_concept",
    "ConceptParseError",
    "MAX_NESTING",
]

# Deepest constructor nesting (Thing or an atom is one level, each
# restriction or connective around it one more) that ``decode`` and
# ``parse_concept`` accept. Every recursive walk over a concept takes at most
# three Python frames per level, so 128 levels stay well below the default
# recursion limit of 1000, while a concept this deep is already longer than
# 250 symbols.
MAX_NESTING = 128


class _Facts:
    """Slots for the facts a concept computes once about itself."""

    __slots__ = ("_hash", "_length", "_sort_key")


# The slot setters bypass the frozen dataclasses' __setattr__.
_store_hash = _Facts._hash.__set__
_store_length = _Facts._length.__set__
_store_sort_key = _Facts._sort_key.__set__


@dataclass(frozen=True, slots=True)
class RoleExpr:
    """A role or its inverse."""

    role_id: int
    inverse: bool = False


@dataclass(frozen=True, slots=True)
class Top(_Facts):
    pass


@dataclass(frozen=True, slots=True)
class Atomic(_Facts):
    class_id: int


@dataclass(frozen=True, slots=True)
class NotAtomic(_Facts):
    class_id: int


@dataclass(frozen=True, slots=True)
class Exists(_Facts):
    role: RoleExpr
    child: "Concept"


@dataclass(frozen=True, slots=True)
class Forall(_Facts):
    role: RoleExpr
    child: "Concept"


@dataclass(frozen=True, slots=True)
class MinCard(_Facts):
    n: int
    role: RoleExpr
    child: "Concept"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("MinCard requires n >= 1")


@dataclass(frozen=True, slots=True)
class MaxCard(_Facts):
    n: int
    role: RoleExpr
    child: "Concept"

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("MaxCard requires n >= 0")


@dataclass(frozen=True, slots=True)
class BoolEq(_Facts):
    role_id: int
    value: bool


def _check_finite(v: float) -> None:
    if math.isnan(v):
        raise ValueError("NaN not allowed in numeric restrictions")


@dataclass(frozen=True, slots=True)
class NumGeq(_Facts):
    role_id: int
    value: float

    def __post_init__(self):
        _check_finite(self.value)


@dataclass(frozen=True, slots=True)
class NumLeq(_Facts):
    role_id: int
    value: float

    def __post_init__(self):
        _check_finite(self.value)


@dataclass(frozen=True, slots=True)
class StrEq(_Facts):
    role_id: int
    value_index: int


@dataclass(frozen=True, slots=True)
class And(_Facts):
    children: tuple["Concept", ...]

    def __post_init__(self):
        if not self.children:
            raise ValueError("And requires at least one operand")


@dataclass(frozen=True, slots=True)
class Or(_Facts):
    children: tuple["Concept", ...]

    def __post_init__(self):
        if not self.children:
            raise ValueError("Or requires at least one operand")


Concept = Union[
    Top, Atomic, NotAtomic, Exists, Forall, MinCard, MaxCard,
    BoolEq, NumGeq, NumLeq, StrEq, And, Or,
]

TOP = Top()

# Rank of each constructor in the canonical total order. Note this is not the
# same numbering as the binary encoding tags (And/Or rank last but encode as
# 0x07/0x08).
_RANK = {
    Top: 0, Atomic: 1, NotAtomic: 2, Exists: 3, Forall: 4, MinCard: 5,
    MaxCard: 6, BoolEq: 7, NumGeq: 8, NumLeq: 9, StrEq: 10, And: 11, Or: 12,
}

_pack_f64 = struct.Struct(">d").pack
_unpack_f64 = struct.Struct(">d").unpack_from


def _float_bits(v: float) -> int:
    # IEEE-754 bit pattern as an unsigned int; gives a deterministic total
    # order and hash independent of float comparison quirks.
    return struct.unpack(">Q", _pack_f64(v))[0]


def sort_key(c: Concept):
    """Nested tuple realizing the canonical total order under tuple comparison."""
    try:
        return c._sort_key
    except AttributeError:
        pass
    key = _compute_sort_key(c)
    _store_sort_key(c, key)
    return key


def _compute_sort_key(c: Concept):
    t = type(c)
    if t is Top:
        return (0,)
    if t is Atomic:
        return (1, c.class_id)
    if t is NotAtomic:
        return (2, c.class_id)
    if t is Exists:
        return (3, c.role.role_id, c.role.inverse, sort_key(c.child))
    if t is Forall:
        return (4, c.role.role_id, c.role.inverse, sort_key(c.child))
    if t is MinCard:
        return (5, c.n, c.role.role_id, c.role.inverse, sort_key(c.child))
    if t is MaxCard:
        return (6, c.n, c.role.role_id, c.role.inverse, sort_key(c.child))
    if t is BoolEq:
        return (7, c.role_id, c.value)
    if t is NumGeq:
        return (8, c.role_id, _float_bits(c.value))
    if t is NumLeq:
        return (9, c.role_id, _float_bits(c.value))
    if t is StrEq:
        return (10, c.role_id, c.value_index)
    if t is And:
        return (11, tuple(sort_key(ch) for ch in c.children))
    if t is Or:
        return (12, tuple(sort_key(ch) for ch in c.children))
    raise TypeError(f"not a concept: {c!r}")


def compare_canonical(a: Concept, b: Concept) -> int:
    """Total order over canonical concepts: -1, 0 or 1."""
    ka, kb = sort_key(a), sort_key(b)
    return -1 if ka < kb else (0 if ka == kb else 1)


def canonicalize(c: Concept) -> Concept:
    """Flatten, deduplicate and sort And/Or operands, recursively.

    Idempotent and semantics-preserving (uses only commutativity,
    associativity and idempotence of conjunction/disjunction). A concept
    that is already canonical is returned as the same object.
    """
    t = type(c)
    if t in (Exists, Forall):
        child = canonicalize(c.child)
        return c if child is c.child else t(c.role, child)
    if t in (MinCard, MaxCard):
        child = canonicalize(c.child)
        return c if child is c.child else t(c.n, c.role, child)
    if t in (And, Or):
        flat = []
        unchanged = True
        for ch in c.children:
            canon = canonicalize(ch)
            if type(canon) is t:
                flat.extend(canon.children)
                unchanged = False
            else:
                flat.append(canon)
                unchanged = unchanged and canon is ch
        if unchanged and len(flat) > 1:
            keys = [sort_key(ch) for ch in flat]
            if all(keys[i] < keys[i + 1] for i in range(len(keys) - 1)):
                return c
        seen = set()
        unique = []
        for ch in flat:
            k = sort_key(ch)
            if k not in seen:
                seen.add(k)
                unique.append((k, ch))
        unique.sort(key=lambda pair: pair[0])
        if len(unique) == 1:
            return unique[0][1]
        return t(tuple(ch for _, ch in unique))
    return c


def concept_length(c: Concept) -> int:
    """Syntactic length: every constructor and symbol counts one, an inverse
    role marker counts one extra, cardinality restrictions count the number."""
    try:
        return c._length
    except AttributeError:
        pass
    t = type(c)
    if t in (Top, Atomic, BoolEq, NumGeq, NumLeq, StrEq):
        n = 1
    elif t is NotAtomic:
        n = 2
    elif t in (Exists, Forall):
        n = 2 + c.role.inverse + concept_length(c.child)
    elif t in (MinCard, MaxCard):
        n = 3 + c.role.inverse + concept_length(c.child)
    elif t in (And, Or):
        n = sum(concept_length(ch) for ch in c.children) + len(c.children) - 1
    else:
        raise TypeError(f"not a concept: {c!r}")
    _store_length(c, n)
    return n


# ---------------------------------------------------------------------------
# Binary codec (big-endian, canonical trees only)

_TAG_TOP = 0x00
_TAG_ATOMIC = 0x01
_TAG_NOT_ATOMIC = 0x02
_TAG_EXISTS = 0x03
_TAG_FORALL = 0x04
_TAG_MIN_CARD = 0x05
_TAG_MAX_CARD = 0x06
_TAG_AND = 0x07
_TAG_OR = 0x08
_TAG_BOOL_EQ = 0x09
_TAG_NUM_GEQ = 0x0A
_TAG_NUM_LEQ = 0x0B
_TAG_STR_EQ = 0x0C

_pack_u32 = struct.Struct(">I").pack
_pack_u16 = struct.Struct(">H").pack


class DecodeError(ValueError):
    """Raised when a byte sequence is not a valid canonical concept encoding."""


def _encode_into(c: Concept, out: bytearray) -> None:
    t = type(c)
    if t is Top:
        out.append(_TAG_TOP)
    elif t is Atomic:
        out.append(_TAG_ATOMIC)
        out += _pack_u32(c.class_id)
    elif t is NotAtomic:
        out.append(_TAG_NOT_ATOMIC)
        out += _pack_u32(c.class_id)
    elif t is Exists or t is Forall:
        out.append(_TAG_EXISTS if t is Exists else _TAG_FORALL)
        out.append(1 if c.role.inverse else 0)
        out += _pack_u32(c.role.role_id)
        _encode_into(c.child, out)
    elif t is MinCard or t is MaxCard:
        out.append(_TAG_MIN_CARD if t is MinCard else _TAG_MAX_CARD)
        out += _pack_u16(c.n)
        out.append(1 if c.role.inverse else 0)
        out += _pack_u32(c.role.role_id)
        _encode_into(c.child, out)
    elif t is And or t is Or:
        out.append(_TAG_AND if t is And else _TAG_OR)
        out += _pack_u16(len(c.children))
        for ch in c.children:
            _encode_into(ch, out)
    elif t is BoolEq:
        out.append(_TAG_BOOL_EQ)
        out += _pack_u32(c.role_id)
        out.append(1 if c.value else 0)
    elif t is NumGeq or t is NumLeq:
        out.append(_TAG_NUM_GEQ if t is NumGeq else _TAG_NUM_LEQ)
        out += _pack_u32(c.role_id)
        out += _pack_f64(c.value)
    elif t is StrEq:
        out.append(_TAG_STR_EQ)
        out += _pack_u32(c.role_id)
        out += _pack_u32(c.value_index)
    else:
        raise TypeError(f"not a concept: {c!r}")


def encode(c: Concept) -> bytes:
    """Canonical binary encoding; caller must pass a canonical concept."""
    out = bytearray()
    _encode_into(c, out)
    return bytes(out)


def _need(data: bytes, pos: int, n: int) -> None:
    if pos + n > len(data):
        raise DecodeError(f"truncated concept encoding at byte {pos}")


def _decode_at(data: bytes, pos: int, depth: int) -> tuple[Concept, int]:
    if depth > MAX_NESTING:
        raise DecodeError(f"concept nested deeper than {MAX_NESTING} levels "
                          f"at byte {pos}")
    _need(data, pos, 1)
    tag = data[pos]
    pos += 1
    if tag == _TAG_TOP:
        return TOP, pos
    if tag in (_TAG_ATOMIC, _TAG_NOT_ATOMIC):
        _need(data, pos, 4)
        cid = int.from_bytes(data[pos:pos + 4], "big")
        cls = Atomic if tag == _TAG_ATOMIC else NotAtomic
        return cls(cid), pos + 4
    if tag in (_TAG_EXISTS, _TAG_FORALL):
        _need(data, pos, 5)
        inv = data[pos]
        if inv not in (0, 1):
            raise DecodeError(f"bad inverse flag {inv} at byte {pos}")
        rid = int.from_bytes(data[pos + 1:pos + 5], "big")
        child, pos = _decode_at(data, pos + 5, depth + 1)
        cls = Exists if tag == _TAG_EXISTS else Forall
        return cls(RoleExpr(rid, bool(inv)), child), pos
    if tag in (_TAG_MIN_CARD, _TAG_MAX_CARD):
        _need(data, pos, 7)
        n = int.from_bytes(data[pos:pos + 2], "big")
        inv = data[pos + 2]
        if inv not in (0, 1):
            raise DecodeError(f"bad inverse flag {inv} at byte {pos + 2}")
        rid = int.from_bytes(data[pos + 3:pos + 7], "big")
        child, pos = _decode_at(data, pos + 7, depth + 1)
        if tag == _TAG_MIN_CARD and n < 1:
            raise DecodeError("MinCard with n=0")
        cls = MinCard if tag == _TAG_MIN_CARD else MaxCard
        return cls(n, RoleExpr(rid, bool(inv)), child), pos
    if tag in (_TAG_AND, _TAG_OR):
        _need(data, pos, 2)
        k = int.from_bytes(data[pos:pos + 2], "big")
        pos += 2
        if k < 2:
            raise DecodeError(f"And/Or with {k} operands")
        children = []
        for _ in range(k):
            child, pos = _decode_at(data, pos, depth + 1)
            if type(child) is (And if tag == _TAG_AND else Or):
                raise DecodeError("nested operand of the same connective (not flattened)")
            children.append(child)
        keys = [sort_key(ch) for ch in children]
        if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
            raise DecodeError("And/Or operands not in canonical order")
        cls = And if tag == _TAG_AND else Or
        return cls(tuple(children)), pos
    if tag == _TAG_BOOL_EQ:
        _need(data, pos, 5)
        rid = int.from_bytes(data[pos:pos + 4], "big")
        v = data[pos + 4]
        if v not in (0, 1):
            raise DecodeError(f"bad boolean value {v} at byte {pos + 4}")
        return BoolEq(rid, bool(v)), pos + 5
    if tag in (_TAG_NUM_GEQ, _TAG_NUM_LEQ):
        _need(data, pos, 12)
        rid = int.from_bytes(data[pos:pos + 4], "big")
        (v,) = _unpack_f64(data, pos + 4)
        if math.isnan(v):
            raise DecodeError("NaN numeric restriction")
        cls = NumGeq if tag == _TAG_NUM_GEQ else NumLeq
        return cls(rid, v), pos + 12
    if tag == _TAG_STR_EQ:
        _need(data, pos, 8)
        rid = int.from_bytes(data[pos:pos + 4], "big")
        vi = int.from_bytes(data[pos + 4:pos + 8], "big")
        return StrEq(rid, vi), pos + 8
    raise DecodeError(f"unknown concept tag 0x{tag:02X} at byte {pos - 1}")


def decode(data: bytes) -> Concept:
    """Inverse of encode. Rejects truncation, unknown tags, nesting deeper
    than ``MAX_NESTING`` and any encoding whose And/Or operands are not
    flattened, deduplicated and sorted."""
    c, pos = _decode_at(data, 0, 1)
    if pos != len(data):
        raise DecodeError(f"{len(data) - pos} trailing bytes after concept")
    return c


# ---------------------------------------------------------------------------
# Hashing

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_FNV64_MASK = 0xFFFFFFFFFFFFFFFF

_hash_cache: dict[bytes, int] = {}


def fnv1a_64(data: bytes) -> int:
    h = FNV64_OFFSET
    for b in data:
        h = ((h ^ b) * FNV64_PRIME) & _FNV64_MASK
    return h


def hash_concept(c: Concept) -> int:
    """64-bit FNV-1a over the canonical encoding; stable across machines."""
    try:
        return c._hash
    except AttributeError:
        pass
    enc = encode(c)
    h = _hash_cache.get(enc)
    if h is None:
        h = fnv1a_64(enc)
        if len(_hash_cache) > 1_000_000:
            _hash_cache.clear()
        _hash_cache[enc] = h
    _store_hash(c, h)
    return h


# ---------------------------------------------------------------------------
# Rendering and parsing (the same grammar in both directions)

def _render_role(role: RoleExpr, st) -> str:
    name = st.role_names.name_of(role.role_id)
    return f"inverse({name})" if role.inverse else name


def _float_repr(v: float) -> str:
    return repr(v)


def render(c: Concept, st) -> str:
    """Deterministic text form, e.g. ``(Person and (hasChild some Thing))``."""
    t = type(c)
    if t is Top:
        return "Thing"
    if t is Atomic:
        return st.class_names.name_of(c.class_id)
    if t is NotAtomic:
        return f"(not {st.class_names.name_of(c.class_id)})"
    if t is Exists:
        return f"({_render_role(c.role, st)} some {render(c.child, st)})"
    if t is Forall:
        return f"({_render_role(c.role, st)} only {render(c.child, st)})"
    if t is MinCard:
        return f"({_render_role(c.role, st)} min {c.n} {render(c.child, st)})"
    if t is MaxCard:
        return f"({_render_role(c.role, st)} max {c.n} {render(c.child, st)})"
    if t is BoolEq:
        name = st.bool_role_names.name_of(c.role_id)
        return f"({name} = {'true' if c.value else 'false'})"
    if t is NumGeq:
        return f"({st.num_role_names.name_of(c.role_id)} >= {_float_repr(c.value)})"
    if t is NumLeq:
        return f"({st.num_role_names.name_of(c.role_id)} <= {_float_repr(c.value)})"
    if t is StrEq:
        name = st.str_role_names.name_of(c.role_id)
        value = st.string_values[c.role_id].name_of(c.value_index)
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'({name} = "{escaped}")'
    if t is And:
        return "(" + " and ".join(render(ch, st) for ch in c.children) + ")"
    if t is Or:
        return "(" + " or ".join(render(ch, st) for ch in c.children) + ")"
    raise TypeError(f"not a concept: {c!r}")


class ConceptParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        self.pos = pos
        caret = " " * pos + "^"
        super().__init__(f"{message}\n  {text}\n  {caret}")


_KEYWORDS = {"and", "or", "some", "only", "min", "max", "not", "inverse", "true", "false"}


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, object, int]] = []
        self._scan()
        self.idx = 0

    def _scan(self):
        text, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "()":
                self.tokens.append((ch, ch, i))
                i += 1
            elif ch == '"':
                j = i + 1
                buf = []
                while j < n and text[j] != '"':
                    if text[j] == "\\" and j + 1 < n:
                        buf.append(text[j + 1])
                        j += 2
                    else:
                        buf.append(text[j])
                        j += 1
                if j >= n:
                    raise ConceptParseError("unterminated string", text, i)
                self.tokens.append(("string", "".join(buf), i))
                i = j + 1
            elif text.startswith(">=", i) or text.startswith("<=", i):
                self.tokens.append((text[i:i + 2], text[i:i + 2], i))
                i += 2
            elif ch == "=":
                self.tokens.append(("=", "=", i))
                i += 1
            elif ch.isdigit() or (ch in "+-." and i + 1 < n and (text[i + 1].isdigit() or text[i + 1] == ".")):
                j = i + 1
                while j < n and (text[j].isdigit() or text[j] in ".eE+-"):
                    # stop '+-' unless exponent sign
                    if text[j] in "+-" and text[j - 1] not in "eE":
                        break
                    j += 1
                tok = text[i:j]
                try:
                    value = float(tok)
                except ValueError:
                    raise ConceptParseError(f"bad number {tok!r}", text, i) from None
                self.tokens.append(("number", value, i))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i + 1
                while j < n and (text[j].isalnum() or text[j] in "_.-"):
                    j += 1
                name = text[i:j]
                kind = name if name in _KEYWORDS else "name"
                self.tokens.append((kind, name, i))
                i = j
            else:
                raise ConceptParseError(f"unexpected character {ch!r}", text, i)
        self.tokens.append(("eof", None, n))

    def peek(self, ahead: int = 0) -> tuple[str, object, int]:
        k = min(self.idx + ahead, len(self.tokens) - 1)
        return self.tokens[k]

    def next(self) -> tuple[str, object, int]:
        tok = self.tokens[self.idx]
        if tok[0] != "eof":
            self.idx += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ConceptParseError(f"expected {kind!r}, found {tok[1]!r}", self.text, tok[2])
        return tok


class _Parser:
    def __init__(self, text: str, st):
        self.tz = _Tokenizer(text)
        self.st = st
        self.text = text

    def parse(self) -> Concept:
        c = self._concept(1)
        tok = self.tz.peek()
        if tok[0] != "eof":
            raise ConceptParseError(f"trailing input {tok[1]!r}", self.text, tok[2])
        return c

    def _lookup(self, table, name: str, what: str, pos: int) -> int:
        ident = table.id_of(name)
        if ident is None:
            raise ConceptParseError(f"unknown {what} {name!r}", self.text, pos)
        return ident

    def _concept(self, depth: int) -> Concept:
        """A concept at nesting level ``depth`` (the outermost is 1)."""
        kind, value, pos = self.tz.peek()
        if depth > MAX_NESTING:
            raise ConceptParseError(
                f"concept nested deeper than {MAX_NESTING} levels", self.text, pos)
        if kind == "name":
            self.tz.next()
            if value == "Thing":
                return TOP
            ident = self.st.class_names.id_of(value)
            if ident is None:
                hint = (" (a role here must be followed by 'some', 'only', "
                        "'min' or 'max')" if value in self.st.role_names else "")
                raise ConceptParseError(f"unknown class {value!r}{hint}",
                                        self.text, pos)
            return Atomic(ident)
        if kind == "(":
            self.tz.next()
            inner = self._inner(depth)
            self.tz.expect(")")
            return inner
        raise ConceptParseError(f"expected a concept, found {value!r}", self.text, pos)

    def _role_expr(self) -> RoleExpr:
        kind, value, pos = self.tz.next()
        if kind == "inverse":
            self.tz.expect("(")
            _, name, npos = self.tz.expect("name")
            self.tz.expect(")")
            return RoleExpr(self._lookup(self.st.role_names, name, "role", npos), True)
        if kind != "name":
            raise ConceptParseError(f"expected a role, found {value!r}", self.text, pos)
        return RoleExpr(self._lookup(self.st.role_names, value, "role", pos), False)

    def _inner(self, depth: int) -> Concept:
        kind, value, pos = self.tz.peek()
        if kind == "not":
            self.tz.next()
            _, name, npos = self.tz.expect("name")
            return NotAtomic(self._lookup(self.st.class_names, name, "class", npos))
        # A bare or inverted role followed by a restriction keyword.
        nxt = self.tz.peek(1)[0]
        if kind == "inverse" or (kind == "name" and nxt in ("some", "only", "min", "max")):
            role = self._role_expr()
            op, opval, oppos = self.tz.next()
            if op == "some":
                return Exists(role, self._concept(depth + 1))
            if op == "only":
                return Forall(role, self._concept(depth + 1))
            if op in ("min", "max"):
                _, num, numpos = self.tz.expect("number")
                if num != int(num):
                    raise ConceptParseError("cardinality must be an integer", self.text, numpos)
                cls = MinCard if op == "min" else MaxCard
                child = self._concept(depth + 1)
                try:
                    return cls(int(num), role, child)
                except ValueError as exc:
                    raise ConceptParseError(str(exc), self.text, numpos) from None
            raise ConceptParseError(f"expected a restriction, found {opval!r}", self.text, oppos)
        if kind == "name" and nxt in ("=", ">=", "<="):
            self.tz.next()
            op, _, oppos = self.tz.next()
            if op == ">=" or op == "<=":
                _, num, _ = self.tz.expect("number")
                rid = self._lookup(self.st.num_role_names, value, "numeric role", pos)
                return (NumGeq if op == ">=" else NumLeq)(rid, num)
            vkind, vvalue, vpos = self.tz.next()
            if vkind in ("true", "false"):
                rid = self._lookup(self.st.bool_role_names, value, "boolean role", pos)
                return BoolEq(rid, vkind == "true")
            if vkind == "string":
                rid = self._lookup(self.st.str_role_names, value, "string role", pos)
                vi = self.st.string_values[rid].id_of(vvalue)
                if vi is None:
                    raise ConceptParseError(f"unknown value {vvalue!r} for string role {value!r}",
                                            self.text, vpos)
                return StrEq(rid, vi)
            raise ConceptParseError(f"expected true, false or a string, found {vvalue!r}",
                                    self.text, vpos)
        # Conjunction / disjunction chain.
        first = self._concept(depth + 1)
        op, _, oppos = self.tz.peek()
        if op not in ("and", "or"):
            raise ConceptParseError("expected 'and' or 'or'", self.text, oppos)
        children = [first]
        connective = op
        while self.tz.peek()[0] == connective:
            self.tz.next()
            children.append(self._concept(depth + 1))
        tok = self.tz.peek()
        if tok[0] in ("and", "or"):
            raise ConceptParseError("cannot mix 'and' with 'or' without parentheses",
                                    self.text, tok[2])
        return (And if connective == "and" else Or)(tuple(children))


def parse_concept(text: str, st) -> Concept:
    """Parse the render grammar back into a concept tree (not canonicalized).

    Nesting deeper than ``MAX_NESTING`` levels is a ``ConceptParseError``."""
    return _Parser(text, st).parse()
