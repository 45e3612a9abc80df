"""Column data types and their fixed-width serialized form.

Every type serializes a Python value into a fixed number of bytes.  The
fixed-width representation intentionally wastes space the way an
uncompressed row store does (leading zero bytes on small integers, padding
on short strings): NULL suppression and the other codecs in
:mod:`repro.compression` then reclaim exactly that waste, so compression
fractions respond to the value distribution just as they do in a real
system.

Conventions:

* ``None`` (SQL NULL) serializes to all-zero bytes for any type.
* Integers (and the integer-backed DECIMAL and DATE types) use big-endian
  two's-complement, so small non-negative values have leading ``0x00``
  bytes and small negative values leading ``0xFF`` bytes.
* Character types are right-padded with ``0x00``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StorageError


@dataclass(frozen=True)
class DataType:
    """Base class for column data types.

    Attributes:
        width: number of bytes of the fixed-width serialized form.
    """

    width: int

    def encode(self, value) -> bytes:
        """Serialize ``value`` into exactly ``self.width`` bytes."""
        raise NotImplementedError

    def decode(self, data: bytes):
        """Inverse of :meth:`encode`."""
        raise NotImplementedError

    @property
    def is_character(self) -> bool:
        """True for CHAR/VARCHAR style (right-padded) types."""
        return False

    @property
    def name(self) -> str:
        return type(self).__name__.upper()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class IntegerBackedType(DataType):
    """Base of the types stored as a big-endian two's-complement integer
    (INT, DECIMAL, DATE): ``encode`` serializes ``int(value)``, and a
    value out of range is a :class:`StorageError` naming the type."""

    def encode(self, value) -> bytes:
        if value is None:
            return b"\x00" * self.width
        try:
            return int(value).to_bytes(self.width, "big", signed=True)
        except OverflowError as exc:
            raise StorageError(f"integer {value!r} overflows {self}") from exc

    def decode(self, data: bytes):
        return int.from_bytes(data, "big", signed=True)


@dataclass(frozen=True)
class IntType(IntegerBackedType):
    """Signed integer stored big-endian two's-complement."""

    width: int = 8

    @property
    def name(self) -> str:
        return f"INT{self.width * 8}"


@dataclass(frozen=True)
class DecimalType(IntegerBackedType):
    """Fixed-point decimal stored as a scaled big-endian integer.

    ``scale`` digits after the decimal point; values are Python ints of the
    *scaled* quantity (e.g. cents), mirroring how generators in
    :mod:`repro.datasets` produce monetary data.
    """

    width: int = 8
    scale: int = 2

    def to_float(self, scaled: int) -> float:
        """Convert a scaled integer back to a float for display."""
        return scaled / (10**self.scale)

    @property
    def name(self) -> str:
        return f"DECIMAL({self.width * 8},{self.scale})"


@dataclass(frozen=True)
class DateType(IntegerBackedType):
    """Date stored as days-since-epoch in 4 big-endian bytes."""

    width: int = 4

    @property
    def name(self) -> str:
        return "DATE"


@dataclass(frozen=True)
class CharType(DataType):
    """Fixed-length character string, right-padded with 0x00."""

    width: int = 16

    def encode(self, value) -> bytes:
        if value is None:
            return b"\x00" * self.width
        raw = value.encode("utf-8") if isinstance(value, str) else bytes(value)
        if len(raw) > self.width:
            raise StorageError(
                f"string of {len(raw)} bytes too long for {self.name}"
            )
        return raw.ljust(self.width, b"\x00")

    def decode(self, data: bytes):
        return data.rstrip(b"\x00").decode("utf-8")

    @property
    def is_character(self) -> bool:
        return True

    @property
    def name(self) -> str:
        return f"CHAR({self.width})"


@dataclass(frozen=True)
class VarCharType(CharType):
    """Variable-length string; stored padded like CHAR in the row format.

    The uncompressed row format in this library is fixed-width (like a CHAR
    column); ROW/NULL-suppression compression recovers the variable-length
    representation.  This mirrors the paper's setting where compression
    removes padding waste.
    """

    width: int = 32

    @property
    def name(self) -> str:
        return f"VARCHAR({self.width})"


# Convenience singletons for the common shapes used throughout the library.
INT = IntType()
INT32 = IntType(width=4)
DATE = DateType()


def decimal(scale: int = 2) -> DecimalType:
    """A standard 8-byte scaled decimal."""
    return DecimalType(width=8, scale=scale)


def char(width: int) -> CharType:
    return CharType(width=width)


def varchar(width: int) -> VarCharType:
    return VarCharType(width=width)
