"""Exception types shared across the package."""


class TrisectError(Exception):
    """Base class for domain errors (CLI exit code 1)."""


class DiagramParseError(TrisectError):
    def __init__(self, message: str, where: str = "") -> None:
        super().__init__(f"{message}" + (f" (at {where})" if where else ""))
        self.where = where


class MoveNotApplicable(TrisectError):
    def __init__(self, clause: str) -> None:
        super().__init__(f"move not applicable: {clause}")
        self.clause = clause


class NoStandardSummand(TrisectError):
    pass


class NonSemisimple(TrisectError):
    pass


class MissingIrreps(TrisectError):
    pass


class ResourceExceeded(TrisectError):
    def __init__(self, cost: int, cap: float, what: str = "or more entries in a contraction intermediate") -> None:
        super().__init__(f"needs {cost} {what} (cap {cap})")
        self.cost = cost
        self.cap = cap


class StabilizationObstruction(TrisectError):
    pass
