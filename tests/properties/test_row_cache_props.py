"""Per-row size and digest caches equal the walks they replace.

``estimate_bytes`` sizes a :class:`~repro.relational.Tuple` through a
registered sizer that memoizes the schema's structural size, and the
workflow engine folds per-row cached digests into its rolling cache
keys.  Both must reproduce the old results bit for bit, since every
virtual-time charge and cache key derives from them.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.fingerprint import combine, fingerprint_value
from repro.cluster.serialization import Sized, estimate_bytes
from repro.relational import Field, FieldType, Schema, Tuple
from repro.workflow.engine import WorkflowController


# -- reference: the structural walk before rows had their own sizer ---------

#: The slots the walk saw on a row.  A row now also has a digest cache
#: slot, which its size deliberately leaves out.
_LEGACY_ROW_SLOTS = ("schema", "values", "_nbytes")


def legacy_estimate(obj):
    """Copy of ``estimate_bytes`` with no per-type sizers."""
    if obj is None:
        return 4
    if isinstance(obj, Sized):
        return obj.payload_bytes()
    if isinstance(obj, bool):
        return 4
    if isinstance(obj, (int, float)):
        return 8
    if isinstance(obj, (str, bytes, bytearray)):
        return 16 + len(obj)
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):
        return 16 + nbytes
    if isinstance(obj, dict):
        return 16 + sum(
            8 + legacy_estimate(k) + legacy_estimate(v) for k, v in obj.items()
        )
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 16 + sum(8 + legacy_estimate(item) for item in obj)
    state = getattr(obj, "__dict__", None)
    if state:
        return 16 + legacy_estimate(state)
    slots = _LEGACY_ROW_SLOTS if type(obj) is Tuple else getattr(obj, "__slots__", None)
    if slots:
        total = 16
        for name in slots:
            if hasattr(obj, name):
                total += 8 + legacy_estimate(getattr(obj, name))
        return total
    return 16


# -- strategies -----------------------------------------------------------------

NAMES = st.sampled_from(["id", "text", "score", "flag", "blob", "k", "v"])
TYPES = st.sampled_from(list(FieldType))

_VALUES = {
    FieldType.INT: st.integers(-(2**40), 2**40),
    FieldType.FLOAT: st.floats(allow_nan=False, width=32),
    FieldType.STRING: st.text(max_size=12),
    FieldType.BOOL: st.booleans(),
    FieldType.ANY: st.recursive(
        st.none() | st.integers() | st.text(max_size=6) | st.binary(max_size=16),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=8,
    ),
}


@st.composite
def schemas(draw):
    names = draw(st.lists(NAMES, min_size=1, max_size=5, unique=True))
    schema = Schema(Field(name, draw(TYPES)) for name in names)
    derive = draw(st.sampled_from(["plain", "project", "concat", "with", "without"]))
    if derive == "project":
        keep = draw(st.integers(1, len(names)))
        return schema.project(draw(st.permutations(names))[:keep])
    if derive == "concat":
        return schema.concat(schema)
    if derive == "with":
        return schema.with_field(Field("extra", draw(TYPES)))
    if derive == "without" and len(names) > 1:
        return schema.without(names[0])
    return schema


@st.composite
def rows(draw, schema=None):
    schema = schema if schema is not None else draw(schemas())
    values = [
        draw(st.none() | _VALUES[field.ftype]) for field in schema.fields
    ]
    row = Tuple(schema, values)
    if draw(st.booleans()):  # warm the caches before sizing/digesting
        row.payload_bytes()
        row.content_digest()
    return row


class _Blob(Sized):
    def __init__(self, n):
        self.n = n

    def payload_bytes(self):
        return self.n


@st.composite
def row_batches(draw):
    schema = draw(schemas())
    return draw(st.lists(rows(schema), max_size=6))


mixed = st.recursive(
    rows() | st.builds(_Blob, st.integers(0, 1 << 16)) | st.integers(),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)


# -- row sizes ------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(rows())
def test_row_size_equals_legacy_walk(row):
    assert estimate_bytes(row) == legacy_estimate(row)


@settings(max_examples=100, deadline=None)
@given(mixed)
def test_mixed_payload_size_equals_legacy_walk(payload):
    assert estimate_bytes(payload) == legacy_estimate(payload)


@settings(max_examples=50, deadline=None)
@given(row_batches())
def test_repeated_sizing_is_stable(batch):
    first = estimate_bytes(batch)
    assert estimate_bytes(batch) == first == legacy_estimate(batch)


# -- row digests ----------------------------------------------------------------


def _roll_key(batch, chain="chain", stream="p0:src#0"):
    instance = SimpleNamespace(cache_chain=chain, cache_keys={})
    return WorkflowController._roll_key(None, instance, stream, batch)


@settings(max_examples=100, deadline=None)
@given(row_batches())
def test_roll_key_equals_atomwise_fingerprint(batch):
    content = fingerprint_value([t.values for t in batch])
    assert _roll_key(batch) == combine("chain", "p0:src#0", "", content)


def _nested(depth, leaf):
    for _ in range(depth):
        leaf = [leaf]
    return leaf


@given(st.integers(0, 20), st.integers())
def test_roll_key_matches_beyond_max_depth(depth, leaf):
    schema = Schema.untyped("deep", "flat")
    batch = [Tuple(schema, [_nested(depth, leaf), depth])]
    content = fingerprint_value([t.values for t in batch])
    assert _roll_key(batch) == combine("chain", "p0:src#0", "", content)


# -- golden values captured before the caches existed ----------------------------

_SCHEMA = Schema.of(
    i=FieldType.INT,
    f=FieldType.FLOAT,
    s=FieldType.STRING,
    b=FieldType.BOOL,
    a=FieldType.ANY,
)


def _golden_rows():
    row = Tuple(_SCHEMA, [7, 2.5, "hello", True, {"k": [1, 2]}])
    null = Tuple(_SCHEMA, [None] * 5)
    blob = Tuple(
        Schema.of(id=FieldType.INT, blob=FieldType.ANY),
        [3, bytes(range(256)) * 4],
    )
    deep = Tuple(
        Schema.untyped("x").with_field(Field("y", FieldType.INT)),
        [_nested(15, 0), 1],
    )
    return row, null, row.concat(row), row.project(["s", "i"]), blob, deep


def test_golden_row_sizes():
    row, null, joined, projected, blob, deep = _golden_rows()
    sizes = [estimate_bytes(r) for r in (row, null, joined, projected, blob, deep)]
    assert sizes == [2230, 2120, 4245, 1040, 2049, 1369]
    assert estimate_bytes([row, {"r": null}, (joined, [projected])]) == 9772


def test_golden_row_digests():
    row, null, joined, projected, blob, deep = _golden_rows()
    for t in (row, blob):  # a warm cache must not change any key
        t.payload_bytes()
        t.content_digest()
    assert (
        fingerprint_value([t.values for t in (row, null, joined)])
        == "b10e947a1a0a80610ae9bacf374bab74"
    )
    key = _roll_key([blob, deep, projected], chain="c", stream="s")
    assert key == combine("c", "s", "", "14e3c158ab79bd528315ef32a98c345d")
    assert fingerprint_value([]) == "cff761fd8488a6f8599068450581c6ae"

