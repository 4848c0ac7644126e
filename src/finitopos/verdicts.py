"""The verdict record shared by all checkers, and the builders of its
square witnesses."""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"
NOT_FOUND = "NOT-FOUND"


@dataclass(frozen=True)
class Verdict:
    property_name: str
    outcome: str  # PASS | FAIL | INCONCLUSIVE | NOT-FOUND
    bounds: dict = field(default_factory=dict)
    witness: dict | None = None  # JSON-ready, with a "kind"
    stats: dict = field(default_factory=dict)
    detail: str = ""

    def __post_init__(self):
        if self.outcome == FAIL and self.witness is None:
            raise ValueError("FAIL verdict requires a witness")

    @property
    def passed(self) -> bool:
        return self.outcome == PASS

    def summary(self) -> str:
        tail = ""
        if self.outcome == PASS and self.bounds:
            tail = " up to " + ", ".join(f"{k}={v}" for k, v in sorted(self.bounds.items()))
        if self.detail:
            tail += f" ({self.detail})"
        return f"{self.property_name}: {self.outcome}{tail}"

    def to_json(self) -> dict:
        return {
            "property": self.property_name,
            "outcome": self.outcome,
            "bounds": dict(self.bounds),
            "witness": self.witness,
            "stats": dict(self.stats),
            "detail": self.detail,
        }


def budget_exhausted(name: str, bounds: dict, limit: int, spent: int, count: str) -> Verdict:
    """The INCONCLUSIVE verdict of a search whose budget of `limit` ran out
    after `spent` charges, counted as stats[count]; the limit joins the bounds."""
    return Verdict(name, INCONCLUSIVE, bounds=dict(bounds, budget=limit), stats={count: spent},
                   detail="budget exhausted before the space was covered")


def mediator_analysis(cone, count: int) -> dict:
    """Why a candidate square is not a pullback: a test cone with `count`
    mediators, 0 or at least 2."""
    return {"cone": cone, "count": count,
            "mode": "no-mediator" if count == 0 else "non-unique-mediator"}


def square_witness(square: dict, f_image_leg: str, l_image: dict, cone, count: int) -> dict:
    """A commuting square (its `kind` inside), which leg is an F-image, its
    L-image, and the mediator analysis that refutes pullback-ness of the image."""
    return {"square": square, "f_image_leg": f_image_leg, "l_image": l_image,
            "analysis": mediator_analysis(cone, count)}


def replay_refuted(reason: str, **stats) -> Verdict:
    """The verdict of a replay whose witness does not establish its claim."""
    return Verdict("witness-replay", FAIL, witness={"kind": "replay", "reason": reason},
                   stats=stats)
