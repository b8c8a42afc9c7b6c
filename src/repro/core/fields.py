"""The classic 5-tuple field layout and the 104-bit concatenated header.

The paper classifies on five header fields — source/destination IPv4
address, source/destination transport port, and protocol — totalling
``32 + 32 + 16 + 16 + 8 = 104`` bits.  ExpCuts consumes this concatenated
bit string ``w`` bits per tree level in a fixed field order, which is what
yields the explicit worst-case depth of ``ceil(104 / w)`` (13 for the
paper's ``w = 8``).
"""

from __future__ import annotations

from enum import IntEnum
from typing import NamedTuple, Sequence


class Field(IntEnum):
    """Index of each 5-tuple dimension, in ExpCuts cutting order."""

    SIP = 0
    DIP = 1
    SPORT = 2
    DPORT = 3
    PROTO = 4


#: Bit width of each field, indexed by :class:`Field`.
FIELD_WIDTHS: tuple[int, ...] = (32, 32, 16, 16, 8)

#: Total header bits classified over (the ``W`` of the paper's ``O(W/w)``).
TOTAL_HEADER_BITS: int = sum(FIELD_WIDTHS)

#: Number of dimensions.
NUM_FIELDS: int = len(FIELD_WIDTHS)

#: Bit offset of each field's MSB within the concatenated header
#: (offset 0 = the very first bit consumed by the root cut).
FIELD_BIT_OFFSETS: tuple[int, ...] = tuple(
    sum(FIELD_WIDTHS[:i]) for i in range(NUM_FIELDS)
)


class Header(NamedTuple):
    """A concrete packet header (one value per field)."""

    sip: int
    dip: int
    sport: int
    dport: int
    proto: int

    def validate(self) -> "Header":
        """Raise ``ValueError`` unless every field is within its width."""
        for field, value in zip(Field, self):
            if not 0 <= value < (1 << FIELD_WIDTHS[field]):
                raise ValueError(
                    f"{field.name} value {value:#x} out of range for "
                    f"{FIELD_WIDTHS[field]}-bit field"
                )
        return self


class CutStep(NamedTuple):
    """One tree level's slice of the concatenated header.

    ``field``
        Which dimension this level cuts.
    ``shift``
        Right-shift applied to the field value so that the ``width`` bits
        consumed at this level land at the bottom.
    ``width``
        Number of bits consumed (the stride ``w``, except possibly a
        shorter final step for a field whose width is not a multiple of
        ``w``).
    """

    field: Field
    shift: int
    width: int


def cut_schedule(stride: int) -> list[CutStep]:
    """The fixed per-level cutting schedule for a given stride ``w``.

    Walks the fields in declaration order, consuming ``stride`` bits per
    level from the MSB side of the current field; when fewer than
    ``stride`` bits remain in a field the step narrows rather than
    straddling the field boundary (keeps every node box an aligned
    power-of-two block in exactly one dimension per level, matching the
    paper's per-field equal-size cuttings).
    """
    if not 1 <= stride <= 16:
        raise ValueError(f"stride must be in [1, 16], got {stride}")
    schedule: list[CutStep] = []
    for field in Field:
        remaining = FIELD_WIDTHS[field]
        while remaining > 0:
            step = min(stride, remaining)
            remaining -= step
            schedule.append(CutStep(field, remaining, step))
    return schedule


def header_key(header: Sequence[int], step: CutStep) -> int:
    """Extract the child index ``n`` for ``header`` at one cut step."""
    return (header[step.field] >> step.shift) & ((1 << step.width) - 1)


def stable_header_hash(header: Sequence[int]) -> int:
    """A process-stable hash of header fields.

    Python's builtin ``hash`` is randomized per process (PYTHONHASHSEED),
    which would make *recorded* lookup programs differ across runs; every
    address-like hash in the library goes through this FNV-1a fold so all
    artifacts regenerate bit-identically.
    """
    acc = 0x811C9DC5
    for value in header:
        v = int(value)
        while True:
            acc = ((acc ^ (v & 0xFF)) * 0x01000193) & 0xFFFFFFFF
            v >>= 8
            if not v:
                break
    return acc


def pack_header(header: Sequence[int]) -> int:
    """Concatenate field values into one 104-bit integer (MSB = SIP MSB)."""
    packed = 0
    for field in Field:
        packed = (packed << FIELD_WIDTHS[field]) | header[field]
    return packed


def unpack_header(packed: int) -> Header:
    """Inverse of :func:`pack_header`."""
    values: list[int] = []
    for field in reversed(Field):
        width = FIELD_WIDTHS[field]
        values.append(packed & ((1 << width) - 1))
        packed >>= width
    return Header(*reversed(values))
