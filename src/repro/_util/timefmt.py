"""Wall-clock and duration parsing for strace records.

strace with ``-tt`` stamps each record with a microsecond wall-clock of
the form ``HH:MM:SS.ffffff`` (no date), and with ``-T`` appends the call
duration as ``<seconds.ffffff>``. The paper parses both into the event
attributes ``start`` and ``dur`` (Sec. III, items 3-4).

Internally the library represents both as integer **microseconds**:
floats lose precision once seconds-of-day exceed ~2^23 µs and, more
importantly, exact integer arithmetic keeps the strace-writer → parser
round-trip property (tested with hypothesis) free of float noise.
``start`` is microseconds since the midnight of the (unrecorded) trace
day; the paper explicitly does not require synchronized clocks across
hosts, and neither do we (Sec. IV-B, max-concurrency caveat).
"""

from __future__ import annotations

import functools
import re

#: Number of microseconds in one day; wall-clocks are taken modulo this.
MICROSECONDS_PER_DAY = 24 * 3600 * 1_000_000

_WALLCLOCK_RE = re.compile(
    r"^(\d{2}):(\d{2}):(\d{2})\.(\d{6})$"
)
_DURATION_RE = re.compile(r"^<(\d+)\.(\d{6})>$")


def parse_wallclock(text: str) -> int:
    """Parse ``'08:55:54.153994'`` into microseconds since midnight.

    Raises :class:`ValueError` for malformed stamps (wrong field widths,
    out-of-range minutes/seconds). Hours are allowed up to 23.

    >>> parse_wallclock("08:55:54.153994")
    32154153994
    """
    match = _WALLCLOCK_RE.match(text)
    if match is None:
        raise ValueError(f"unparseable wall clock: {text!r}")
    micros = wallclock_us(text[:8], text[9:])
    if micros is None:
        raise ValueError(f"out-of-range wall clock: {text!r}")
    return micros


def wallclock_us(hms: str, micros: str) -> int | None:
    """µs since midnight from the ``HH:MM:SS`` and ``ffffff`` digit
    fields of a ``-tt`` stamp, or ``None`` when a field is out of range
    (hours up to 23, second 60 allowed as a leap second).

    The one stamp → ``start_us`` conversion of the package: the
    tokenizer (via :func:`parse_wallclock`) and both fast paths of the
    line decoder call it.

    >>> wallclock_us("08:55:54", "153994")
    32154153994
    """
    base = _second_of_day_us(hms)
    return None if base is None else base + int(micros)


@functools.lru_cache(maxsize=1 << 12)
def _second_of_day_us(hms: str) -> int | None:
    """The ``HH:MM:SS`` part of :func:`wallclock_us`, cached: the lines
    of a trace share few distinct seconds."""
    hours, minutes, seconds = int(hms[:2]), int(hms[3:5]), int(hms[6:])
    if hours > 23 or minutes > 59 or seconds > 60:
        return None
    return (hours * 3600 + minutes * 60 + seconds) * 1_000_000


def format_wallclock(micros_since_midnight: int) -> str:
    """Inverse of :func:`parse_wallclock`.

    Values are wrapped modulo 24 h so a simulator running past midnight
    still emits valid stamps (matching strace's own wrap-around).

    >>> format_wallclock(32154153994)
    '08:55:54.153994'
    """
    if micros_since_midnight < 0:
        raise ValueError("wall clock must be non-negative")
    total = micros_since_midnight % MICROSECONDS_PER_DAY
    micros = total % 1_000_000
    total //= 1_000_000
    seconds = total % 60
    total //= 60
    minutes = total % 60
    hours = total // 60
    return f"{hours:02d}:{minutes:02d}:{seconds:02d}.{micros:06d}"


def parse_duration(text: str) -> int:
    """Parse a ``-T`` duration annotation ``'<0.000203>'`` into µs.

    >>> parse_duration("<0.000203>")
    203
    """
    match = _DURATION_RE.match(text)
    if match is None:
        raise ValueError(f"unparseable duration: {text!r}")
    seconds, micros = int(match.group(1)), int(match.group(2))
    return seconds * 1_000_000 + micros


def format_duration(micros: int) -> str:
    """Inverse of :func:`parse_duration`.

    >>> format_duration(203)
    '<0.000203>'
    """
    if micros < 0:
        raise ValueError("duration must be non-negative")
    return f"<{micros // 1_000_000}.{micros % 1_000_000:06d}>"


def micros_to_seconds(micros: int | float) -> float:
    """Convenience: µs → float seconds (used by statistics/rendering)."""
    return micros / 1e6
