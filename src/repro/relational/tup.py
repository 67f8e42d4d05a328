"""Immutable schema-checked tuples (named ``tup`` to avoid shadowing
the built-in ``tuple``)."""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Sequence, Union

from repro.cache.fingerprint import fingerprint_value
from repro.cluster.serialization import estimate_bytes, register_sizer
from repro.relational.schema import Schema

__all__ = ["Tuple"]


class Tuple:
    """One row of data: values bound to a :class:`Schema`.

    Tuples are immutable; derivation methods return new tuples.  Field
    access works both by name and by position::

        t["text"]   # by name
        t[0]        # by position
    """

    __slots__ = ("schema", "values", "_nbytes", "_digest")

    def __init__(self, schema: Schema, values: Sequence[Any]) -> None:
        schema.validate(values)
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "_nbytes", -1)
        object.__setattr__(self, "_digest", None)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Tuple is immutable")

    def __copy__(self) -> "Tuple":
        return self

    def __deepcopy__(self, memo: Dict[int, Any]) -> "Tuple":
        # Immutable (and holding only immutable values), so a deep copy
        # is the object itself; also keeps operator-state checkpoints
        # (repro.workflow recovery) from tripping over __setattr__.
        return self

    def __reduce__(self) -> Any:
        # Pickle by content only.  The default slot-state pickle carried
        # the size and digest caches, so equal rows fingerprinted
        # differently once one of them had been sized or digested.
        return (type(self), (self.schema, self.values))

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_dict(cls, schema: Schema, mapping: Mapping[str, Any]) -> "Tuple":
        """Build a tuple from a field-name mapping (missing -> None)."""
        return cls(schema, [mapping.get(name) for name in schema.names])

    # -- access ----------------------------------------------------------------

    def __getitem__(self, key: Union[str, int]) -> Any:
        if isinstance(key, str):
            return self.values[self.schema.index_of(key)]
        return self.values[key]

    def get(self, name: str, default: Any = None) -> Any:
        """Field value by name, or ``default`` if the field is absent."""
        if name in self.schema:
            return self.values[self.schema.index_of(name)]
        return default

    def as_dict(self) -> Dict[str, Any]:
        return dict(zip(self.schema.names, self.values))

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Tuple)
            and self.schema == other.schema
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.schema, self.values))

    # -- derivation ---------------------------------------------------------------

    def project(self, names: Sequence[str]) -> "Tuple":
        """Tuple restricted to the given fields."""
        schema = self.schema.project(names)
        return Tuple(schema, [self[name] for name in names])

    def with_value(self, name: str, value: Any) -> "Tuple":
        """Tuple with field ``name`` replaced by ``value``."""
        index = self.schema.index_of(name)
        values = list(self.values)
        values[index] = value
        return Tuple(self.schema, values)

    def concat(self, other: "Tuple", suffix: str = "_right") -> "Tuple":
        """Join-style concatenation of two tuples."""
        schema = self.schema.concat(other.schema, suffix=suffix)
        return Tuple(schema, list(self.values) + list(other.values))

    # -- sizing ------------------------------------------------------------------

    def payload_bytes(self) -> int:
        """Estimated serialized size (values only; schema is shared).

        Cached after the first call: values are immutable, so the
        estimate never changes, and batch accounting in the workflow
        engine asks for it once per channel hop.
        """
        nbytes = self._nbytes
        if nbytes < 0:
            nbytes = estimate_bytes(self.values)
            object.__setattr__(self, "_nbytes", nbytes)
        return nbytes

    def content_digest(self) -> str:
        """Fingerprint of the values as one element of a row list.

        Equals what ``fingerprint_value(rows)`` computes for this row's
        ``values`` inside a list of rows (hence ``_depth=1``), so keys
        folded from cached digests match keys hashed atom by atom.
        Cached after the first call, like :meth:`payload_bytes`.
        """
        digest = self._digest
        if digest is None:
            digest = fingerprint_value(self.values, 1)
            object.__setattr__(self, "_digest", digest)
        return digest

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.schema.names, self.values)
        )
        return f"Tuple({pairs})"


#: Structural size of each distinct schema, keyed by its fields.  A
#: schema's other attributes (name index, type checkers, arity) derive
#: from its fields, so equal fields mean an equal size.  Keyed by value,
#: not ``id()``: ids are reused once a schema is collected.
_SCHEMA_BYTES: Dict[Any, int] = {}

#: The schema sized last and its size.  Rows of one batch share their
#: schema object, and holding it here keeps the identity check exact;
#: this skips hashing the fields for almost every row.
_last_schema: List[Any] = [None, 0]


def _row_bytes(row: Tuple) -> int:
    """``estimate_bytes(row)`` without re-walking the shared schema.

    The generic ``__slots__`` walk charged 16 B of object overhead plus
    8 B per slot for ``schema``, ``values`` and the int ``_nbytes``
    (8 B): 48 B, the schema and the values.  The ``_digest`` cache slot
    is left out so every object-store charge stays what it was.
    """
    schema = row.schema
    last = _last_schema
    if schema is not last[0]:
        if type(schema) is not Schema:
            return 48 + estimate_bytes(schema) + row.payload_bytes()
        fields = schema.fields
        schema_bytes = _SCHEMA_BYTES.get(fields)
        if schema_bytes is None:
            schema_bytes = _SCHEMA_BYTES[fields] = estimate_bytes(schema)
        last[0] = schema
        last[1] = schema_bytes
    return 48 + last[1] + row.payload_bytes()


register_sizer(Tuple, _row_bytes)
