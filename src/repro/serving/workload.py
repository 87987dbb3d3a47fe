"""Seeded request traffic: Poisson, diurnal and bursty arrival shapes.

Every arrival instant is a pure function of ``(seed, shape, params)``
via the repo-wide counter-mode draw discipline
(``sha256(f"{seed}:{stream}:{index}")``, see :mod:`repro.faults.plan`)
— there is no RNG object to carry or advance, so a traffic trace is
content-addressed: the same config generates the byte-identical trace
in any process, on any host, in any order.

All three shapes are inhomogeneous-Poisson processes generated by
inverting the integrated rate Λ(t) against unit-mean exponential
increments (the time-rescaling theorem):

* ``poisson`` — constant λ(t) = rate (closed-form inversion);
* ``diurnal`` — λ(t) = rate·(1 + A·sin(2πt/P)); Λ is transcendental,
  inverted by fixed-point-free bisection down to float resolution;
* ``bursty`` — piecewise-constant λ: baseline `rate`, multiplied by
  ``burst_factor`` inside every ``[k·every, k·every + len)`` window;
  Λ is piecewise linear and inverted exactly, segment by segment.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.faults.plan import unit_draw

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.config import ServingConfig

#: The draw stream every request arrival consumes one index of.
TRAFFIC_STREAM = "serving/arrival"
TRAFFIC_SHAPES = ("poisson", "diurnal", "bursty")


def _diurnal_advance(
    t: float, increment: float, rate: float, period: float, amplitude: float
) -> float:
    """Next arrival instant after `t` for the sinusoid-modulated rate."""
    two_pi = 2.0 * math.pi
    cos = math.cos
    # Λ(x) = ∫₀ˣ rate·(1 + A·sin(2πs/P)) ds, increasing since A < 1, is
    # spelled out at each of its three sites below: the bisection
    # evaluates it ~46 times per arrival, and a helper call per step
    # costs more than the expression. Keep the three spellings equal and
    # their operands in this order. Only what is bit-safe is hoisted:
    # `amplitude * period / two_pi` is left-associated and constant,
    # while `two_pi * x / period` must stay spelled as is
    # (`x * (two_pi / period)` rounds differently).
    scale = amplitude * period / two_pi
    target = rate * (t + scale * (1.0 - cos(two_pi * t / period))) + increment
    lo = t
    # λ(t) >= rate·(1 - A) bounds how far the next arrival can be.
    hi = t + increment / (rate * (1.0 - amplitude)) + 1e-12
    while rate * (hi + scale * (1.0 - cos(two_pi * hi / period))) < target:  # pragma: no cover
        hi += hi - t
    # Bisect until the interval cannot shrink: deterministic and exact
    # to float resolution, no tolerance constant to tune.
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if rate * (mid + scale * (1.0 - cos(two_pi * mid / period))) < target:
            lo = mid
        else:
            hi = mid


def _bursty_advance(
    t: float, increment: float, rate: float, every: float, length: float, factor: float
) -> float:
    """Next arrival instant after `t` for the piecewise-constant rate."""
    remaining = increment
    while True:
        offset = math.fmod(t, every)
        if offset < length:
            segment_rate = rate * factor
            segment_end = t - offset + length
        else:
            segment_rate = rate
            segment_end = t - offset + every
        capacity = segment_rate * (segment_end - t)
        if remaining <= capacity:
            return t + remaining / segment_rate
        if not segment_end > t:
            # The window edge is closer than one float step: `t` could
            # never advance again.
            raise ConfigurationError(
                f"burst windows ({every} s / {length} s) are below float "
                f"resolution at t={t}"
            )
        remaining -= capacity
        t = segment_end


def check_traffic(
    traffic: str,
    rate_rps: float,
    count: int,
    diurnal_period_s: float,
    diurnal_amplitude: float,
    burst_every_s: float,
    burst_len_s: float,
    burst_factor: float,
) -> None:
    """Reject traffic parameters no trace can be generated from.

    Non-finite values are refused along with out-of-range ones: a NaN
    passes every ``<=`` test and then never leaves the inversion loops.
    The one validator behind `ServingConfig` and `request_arrivals`; it
    names each knob as the ``infer`` / ``serve`` flag that sets it
    (`count` is ``--requests``), like the rest of `ServingConfig`'s checks.
    """
    if traffic not in TRAFFIC_SHAPES:
        raise ConfigurationError(
            f"unknown traffic shape {traffic!r}; expected one of {TRAFFIC_SHAPES}"
        )
    if not 0 < rate_rps < math.inf:
        raise ConfigurationError(f"--rate-rps must be > 0 and finite, got {rate_rps}")
    if count < 1:
        raise ConfigurationError(f"--requests must be >= 1, got {count}")
    if not 0 < diurnal_period_s < math.inf:
        raise ConfigurationError(
            f"--diurnal-period-s must be > 0 and finite, got {diurnal_period_s}"
        )
    if not 0 <= diurnal_amplitude < 1:
        raise ConfigurationError(
            f"--diurnal-amplitude must be in [0, 1), got {diurnal_amplitude}"
        )
    if not 0 < burst_len_s <= burst_every_s < math.inf:
        raise ConfigurationError(
            "--burst-len-s must be in (0, --burst-every-s] and --burst-every-s "
            f"finite, got {burst_len_s} / {burst_every_s}"
        )
    if not 1 <= burst_factor < math.inf:
        raise ConfigurationError(
            f"--burst-factor must be >= 1 and finite, got {burst_factor}"
        )


def request_arrivals(
    seed: int,
    traffic: str,
    rate_rps: float,
    count: int,
    *,
    diurnal_period_s: float = 30.0,
    diurnal_amplitude: float = 0.8,
    burst_every_s: float = 10.0,
    burst_len_s: float = 1.0,
    burst_factor: float = 6.0,
) -> list[float]:
    """`count` strictly-increasing seeded arrival instants (seconds)."""
    check_traffic(
        traffic, rate_rps, count, diurnal_period_s, diurnal_amplitude,
        burst_every_s, burst_len_s, burst_factor,
    )
    arrivals: list[float] = []
    t = 0.0
    for index in range(count):
        u = unit_draw(seed, TRAFFIC_STREAM, index)
        increment = -math.log(1.0 - u)  # unit-mean exponential
        if traffic == "poisson":
            t += increment / rate_rps
        elif traffic == "diurnal":
            t = _diurnal_advance(
                t, increment, rate_rps, diurnal_period_s, diurnal_amplitude
            )
        else:
            t = _bursty_advance(
                t, increment, rate_rps, burst_every_s, burst_len_s, burst_factor
            )
        arrivals.append(t)
    return arrivals


def arrivals_for(config: "ServingConfig") -> list[float]:
    """The config's full request trace (pure function of the config)."""
    return request_arrivals(
        config.seed,
        config.traffic,
        config.rate_rps,
        config.requests,
        diurnal_period_s=config.diurnal_period_s,
        diurnal_amplitude=config.diurnal_amplitude,
        burst_every_s=config.burst_every_s,
        burst_len_s=config.burst_len_s,
        burst_factor=config.burst_factor,
    )


def traffic_trace(config: "ServingConfig") -> dict:
    """A content-addressed trace document (shape + params + instants)."""
    return {
        "stream": TRAFFIC_STREAM,
        "seed": config.seed,
        "traffic": config.traffic,
        "rate_rps": config.rate_rps,
        "requests": config.requests,
        "arrivals_s": arrivals_for(config),
    }
