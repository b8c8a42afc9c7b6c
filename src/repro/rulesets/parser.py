"""ClassBench-style textual rule format, read and write.

One rule per line::

    @10.0.0.0/8  192.168.1.0/24  0 : 1023  80 : 80  0x06/0xFF  permit

i.e. ``@sip_cidr dip_cidr sport_lo : sport_hi dport_lo : dport_hi
proto/mask [action]`` — the format published with ClassBench, extended
with an optional trailing action token.  ``proto/0x00`` is the protocol
wildcard; a protocol mask other than 0x00/0xFF is rejected (real filter
sets use only those two).
"""

from __future__ import annotations

import io
import logging
import re
from pathlib import Path
from typing import TextIO

from ..core.errors import RuleFormatError, RuleParseError
from ..core.interval import Interval, full_interval, prefix_to_interval
from ..core.rule import ACTION_PERMIT, Rule, RuleSet

log = logging.getLogger(__name__)

_LINE_RE = re.compile(
    r"^@(?P<sip>\S+)\s+(?P<dip>\S+)\s+"
    r"(?P<sp_lo>\d+)\s*:\s*(?P<sp_hi>\d+)\s+"
    r"(?P<dp_lo>\d+)\s*:\s*(?P<dp_hi>\d+)\s+"
    r"(?P<proto>0x[0-9a-fA-F]+)/(?P<pmask>0x[0-9a-fA-F]+)"
    r"(?:\s+(?P<action>\S+))?\s*$"
)


def _parse_cidr(text: str) -> Interval:
    if "/" not in text:
        raise ValueError(f"malformed CIDR {text!r}")
    addr_text, plen_text = text.split("/")
    parts = addr_text.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed CIDR {text!r}")
    addr = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"malformed CIDR {text!r}")
        addr = (addr << 8) | octet
    return prefix_to_interval(addr, int(plen_text), 32)


def _format_ip(value: int) -> str:
    return ".".join(str((value >> s) & 0xFF) for s in (24, 16, 8, 0))


def _interval_to_cidr(iv: Interval) -> str:
    """Render an aligned power-of-two interval as CIDR."""
    size = iv.size
    if size & (size - 1) or iv.lo % size:
        raise RuleFormatError(f"interval {iv} is not an aligned prefix block")
    plen = 32 - (size.bit_length() - 1)
    return f"{_format_ip(iv.lo)}/{plen}"


def _parse_line(line: str) -> Rule:
    """Parse one non-empty rule line; raises ``ValueError`` flavours."""
    match = _LINE_RE.match(line)
    if not match:
        raise ValueError(f"cannot parse rule {line!r}")
    g = match.groupdict()
    proto_val = int(g["proto"], 16)
    proto_mask = int(g["pmask"], 16)
    if proto_mask == 0x00:
        proto = full_interval(8)
    elif proto_mask == 0xFF:
        proto = Interval(proto_val, proto_val)
    else:
        raise ValueError(f"unsupported protocol mask {g['pmask']}")
    return Rule(
        (
            _parse_cidr(g["sip"]),
            _parse_cidr(g["dip"]),
            Interval(int(g["sp_lo"]), int(g["sp_hi"])),
            Interval(int(g["dp_lo"]), int(g["dp_hi"])),
            proto,
        ),
        g["action"] or ACTION_PERMIT,
    )


def parse_rules(stream: TextIO | str, name: str = "ruleset",
                strict: bool = True,
                errors: list[RuleParseError] | None = None) -> RuleSet:
    """Parse rules from a file object or a string.

    Every malformed line surfaces as a typed
    :class:`~repro.core.errors.RuleParseError` carrying the source name
    and line number — no raw ``IndexError``/``ValueError`` escapes.
    With ``strict=False`` bad lines are skipped and counted instead of
    fatal: each one is appended to ``errors`` (when a list is passed)
    and summarised in a log warning.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    rules: list[Rule] = []
    skipped = 0
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rules.append(_parse_line(line))
        except (ValueError, IndexError) as exc:
            error = RuleParseError(str(exc), source=name, line_no=line_no)
            if strict:
                raise error from exc
            skipped += 1
            if errors is not None:
                errors.append(error)
    if skipped:
        log.warning("%s: skipped %d malformed rule line(s)", name, skipped)
    return RuleSet(rules, name=name)


def load_rules(path: str | Path, strict: bool = True,
               errors: list[RuleParseError] | None = None) -> RuleSet:
    path = Path(path)
    with path.open() as fh:
        return parse_rules(fh, name=path.stem, strict=strict, errors=errors)


def format_rules(ruleset: RuleSet) -> str:
    """Serialise a rule set back to the textual format.

    IP intervals must be prefix blocks (true for generated and parsed
    sets); ports and protocol round-trip exactly.
    """
    lines = []
    for rule in ruleset:
        sip, dip, sp, dp, proto = rule.intervals
        if proto.size == 256:
            proto_text = "0x00/0x00"
        elif proto.lo == proto.hi:
            proto_text = f"0x{proto.lo:02X}/0xFF"
        else:
            raise RuleFormatError(f"protocol interval {proto} is not representable")
        lines.append(
            f"@{_interval_to_cidr(sip)}\t{_interval_to_cidr(dip)}\t"
            f"{sp.lo} : {sp.hi}\t{dp.lo} : {dp.hi}\t{proto_text}\t{rule.action}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def save_rules(ruleset: RuleSet, path: str | Path) -> None:
    Path(path).write_text(format_rules(ruleset))
