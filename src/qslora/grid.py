"""The (sf, waveform, delta_s, snr) grid: its points and how each axis is read.

Every subcommand reads the axes it takes through Grid, so one rule holds
for all of them: each item is checked by the type or function that owns
it, repeats are dropped, the rest are sorted in their own type's order
(a ChipWaveform by its token), and an empty axis is refused. The grid's
points are the product of the sorted axes, so a point's place in any
output does not depend on how its axes were listed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .channel import validate_delta_s, validate_snr
from .modulation import validate_real, validate_sf
from .waveforms import WAVEFORM_TOKENS, ChipWaveform

__all__ = ["GridPoint", "snr_axis", "Axes", "Grid"]

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
        if not isinstance(self.waveform, ChipWaveform):
            raise ValueError(f"waveform must be a ChipWaveform, got {self.waveform!r}")
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


class Axes(NamedTuple):
    """The four resolved axes of a Grid, each sorted and free of repeats."""

    sf: tuple[int, ...]
    waveform: tuple[ChipWaveform, ...]
    delta_s: tuple[float, ...]
    snr: tuple[float, ...]


@dataclass(frozen=True)
class Grid:
    """The axes of a grid as given, and as read by the one axis rule.

    Construction reads each axis once: every item through its owner
    (validate_sf, ChipWaveform, validate_delta_s, snr_axis, whose points
    pass channel.validate_snr), then repeats are dropped and the rest
    sorted in their own order. An empty list, a bad item or a wrong type
    raises ValueError whose message starts with the axis's config key
    (sf, waveform, delta-s, snr). axes keeps what was read, out of
    __init__ and equality; points, the product of the axes in order
    (sf, waveform token, delta_s, snr_db), is built on first use, so a
    caller that walks only the axes builds no GridPoint.
    """

    sf_list: tuple[int, ...] = (4, 5, 6, 7)
    waveforms: tuple[str, ...] = WAVEFORM_TOKENS
    delta_s_list: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    snr_start_db: float = -4.0
    snr_stop_db: float = 24.0
    snr_step_db: float = 2.0
    axes: Axes = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        reads = (
            ("sf", lambda: {validate_sf(sf) for sf in self.sf_list}),
            ("waveform", lambda: {ChipWaveform(tok) for tok in self.waveforms}),
            # + 0.0 makes -0.0 the point 0.0, as GridPoint stores it
            ("delta-s", lambda: {validate_delta_s(ds) + 0.0 for ds in self.delta_s_list}),
            ("snr", lambda: set(snr_axis(self.snr_start_db, self.snr_stop_db, self.snr_step_db))),
        )
        axes = []
        for name, read in reads:
            try:
                items = read()
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{name}: {exc}") from None
            if not items:
                raise ValueError(f"{name} list is empty")
            axes.append(tuple(sorted(items)))
        object.__setattr__(self, "axes", Axes(*axes))

    @functools.cached_property
    def points(self) -> tuple[GridPoint, ...]:
        return tuple(GridPoint(*coords) for coords in itertools.product(*self.axes))
