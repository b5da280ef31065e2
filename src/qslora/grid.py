"""The (sf, waveform, delta_s, snr) grid: its points and how each axis is read.

Every subcommand reads the axes it takes through Grid, so one rule holds
for all of them: each item is checked by the type or function that owns
it, repeats are dropped, the rest are sorted in their own type's order
(a waveform as its token string), and an empty axis is refused. A Grid keeps
each axis only as read, and its points are the product of those sorted
axes, so a point's place in any output does not depend on how its axes
were listed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .channel import validate_delta_s, validate_snr
from .modulation import validate_real, validate_sf
from .waveforms import WAVEFORM_TOKENS, ChipWaveform, validate_waveform

__all__ = ["GridPoint", "snr_axis", "Grid"]

_MAX_SNR_POINTS = 100_000  # the most points snr_axis builds


@dataclass(frozen=True)
class GridPoint:
    """One cell of the sweep grid."""

    sf: int
    waveform: ChipWaveform
    delta_s: float
    snr_db: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "sf", validate_sf(self.sf))
        validate_waveform(self.waveform)
        # canonical floats: 1, 1.0 and np.float64(1.0), or -0.0 and 0.0, share a stream
        object.__setattr__(self, "delta_s", validate_delta_s(self.delta_s) + 0.0)
        object.__setattr__(self, "snr_db", validate_snr(self.snr_db) + 0.0)


def snr_axis(start_db: float, stop_db: float, step_db: float) -> list[float]:
    """Inclusive dB grid start, start+step, ..., up to stop when reachable.

    Each point is start + i*step formed exactly from the shortest reprs of
    the three floats (0.1 is one tenth) and rounded once to a float, so a
    point's value does not depend on the axis it is listed in: 0.1:0.7:0.2
    ends on 0.7, as 0.7:0.7:1 does. Every point is an SNR by
    channel.validate_snr; start and the last point are checked, and the
    points between lie between them. stop >= start and step > 0 are real
    numbers by modulation.validate_real, and an axis of more than
    _MAX_SNR_POINTS points, counted exactly before any is built, is refused.
    """
    start_db = validate_snr(start_db)
    stop_db = validate_real(stop_db, "snr axis stop", start_db)
    step_db = validate_real(step_db, "snr axis step", 0)
    if not step_db > 0:
        raise ValueError(f"snr axis step must be > 0, got {step_db}")
    start, stop, step = (Fraction(repr(v)) for v in (start_db, stop_db, step_db))
    count = int((stop - start) // step) + 1
    if count > _MAX_SNR_POINTS:
        raise ValueError(f"snr axis has too many points (more than {_MAX_SNR_POINTS})")
    validate_snr(float(start + (count - 1) * step))
    return [float(start + i * step) for i in range(count)]


def _read_fields(obj, reads) -> None:
    """Store fields of the frozen dataclass obj as read, in the order of reads.

    reads holds (key, names, read) triples: read() returns the value of the
    field names, or a tuple of values for a tuple of names. A TypeError or
    ValueError from read raises ValueError whose message starts with key,
    the fields' config key; a list read as no items raises "<key> list is
    empty". Grid and SweepConfig read every field through this loop.
    """
    for key, names, read in reads:
        try:
            values = read()
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{key}: {exc}") from None
        if values == ():
            raise ValueError(f"{key} list is empty")
        for name, value in zip(names, values) if isinstance(names, tuple) else [(names, values)]:
            object.__setattr__(obj, name, value)


def _axis(items, read) -> tuple:
    """The items of a list axis, each read by read, repeats dropped and the rest sorted.

    A str is one value, not a list of its characters, and is refused.
    """
    if isinstance(items, str):
        raise ValueError(f"expected a list, got {items!r}")
    return tuple(sorted({read(item) for item in items}))


@dataclass(frozen=True)
class Grid:
    """The four axes of a grid, each stored as the one axis rule reads it.

    Construction reads each axis once: every item through its owner
    (validate_sf, ChipWaveform, validate_delta_s, snr_axis, whose points
    pass channel.validate_snr), then repeats are dropped and the rest
    sorted in their own order. sf_list, waveforms (as token strings, in
    string order) and delta_s_list keep those tuples, and the
    three SNR fields the floats that snr_axis checked; snr_db_list holds
    the axis it built, out of __init__ and equality. So a grid equals,
    hashes and serializes (dataclasses.asdict) as the points it runs, and
    reading its fields again reads the same grid. An empty list, a bad
    item or a wrong type (a str for a list too) raises ValueError whose
    message starts with the axis's config key (sf, waveform, delta-s,
    snr). points, the product of the axes in order (sf, waveform token,
    delta_s, snr_db), is built on first use, so a caller that walks only
    the axes builds no GridPoint.
    """

    sf_list: tuple[int, ...] = (4, 5, 6, 7)
    waveforms: tuple[str, ...] = WAVEFORM_TOKENS
    delta_s_list: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    snr_start_db: float = -4.0
    snr_stop_db: float = 24.0
    snr_step_db: float = 2.0
    snr_db_list: tuple[float, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        snr = (self.snr_start_db, self.snr_stop_db, self.snr_step_db)
        _read_fields(self, (
            ("sf", "sf_list", lambda: _axis(self.sf_list, validate_sf)),
            ("waveform", "waveforms",
             lambda: _axis(self.waveforms, lambda tok: ChipWaveform(tok).kind)),
            # + 0.0 makes -0.0 the point 0.0, as GridPoint stores it
            ("delta-s", "delta_s_list",
             lambda: _axis(self.delta_s_list, lambda ds: validate_delta_s(ds) + 0.0)),
            # snr_axis checks all three before float reads them
            ("snr", ("snr_db_list", "snr_start_db", "snr_stop_db", "snr_step_db"),
             lambda: (tuple(snr_axis(*snr)), *map(float, snr))),
        ))

    @functools.cached_property
    def points(self) -> tuple[GridPoint, ...]:
        waveforms = map(ChipWaveform, self.waveforms)
        axes = itertools.product(self.sf_list, waveforms, self.delta_s_list, self.snr_db_list)
        return tuple(GridPoint(*coords) for coords in axes)
