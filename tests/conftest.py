"""Shared pytest wiring and scalar reference formulas.

Collects one verdict line per acceptance gate so the end-of-run summary
shows them even when every test passes under output capture.  The scalar
bridge hit probability, Frechet bounds and independence product are the
references that the vectorized kernel (``bridge._no_hit`` and
``bridge._combine``) is tested against.
"""

from __future__ import annotations

import math

_VERDICTS: list[tuple[str, bool]] = []


def record_verdict(label: str, passed: bool) -> None:
    _VERDICTS.append((label, passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _VERDICTS:
        return
    terminalreporter.section("acceptance summary")
    for label, passed in _VERDICTS:
        terminalreporter.write_line(f"{label}: {'PASS' if passed else 'FAIL'}")


def hit_probability(s0: float, s1: float, barrier: float, sigma: float, dt: float) -> float:
    """Probability that a log-price bridge from ``s0`` to ``s1`` touches ``barrier``.

    ``exp(-2 ln(barrier/s0) ln(barrier/s1) / (sigma^2 dt))`` over ``dt``
    years at volatility ``sigma``; both prices must lie strictly on the same
    side of the barrier, which makes the same formula serve either side.
    """
    return math.exp(-2.0 * math.log(barrier / s0) * math.log(barrier / s1) / (sigma * sigma * dt))


def frechet_bounds(hit_probs) -> tuple[float, float]:
    """Sharp bounds on the joint no-hit probability given event marginals.

    ``hit_probs`` lists the xi of every active barrier event in the
    interval.  Returns ``(max(1 - sum, 0), min(1 - xi))``; an empty list
    means no barriers, hence certain no-hit ``(1, 1)``.
    """
    xs = [float(p) for p in hit_probs]
    if not xs:
        return 1.0, 1.0
    lower = max(1.0 - sum(xs), 0.0)
    upper = 1.0 - max(xs)
    return lower, upper


def independent_no_hit(hit_probs) -> float:
    """Joint no-hit probability if the events were independent.

    The product of ``1 - xi`` over events; always lies between the Frechet
    bounds.
    """
    out = 1.0
    for p in hit_probs:
        out *= 1.0 - float(p)
    return out
