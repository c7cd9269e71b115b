"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed input file. Carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InvalidConfig(ValueError):
    pass


class NotAcyclic(ValueError):
    """The scoped sub-tournament contains a directed triangle."""

    def __init__(self, witness):
        super().__init__(f"directed triangle {tuple(witness)} inside scope")
        self.witness = tuple(witness)


class InternalError(RuntimeError):
    """A broken invariant or contract inside the package: a bug, never bad input."""


class BrokenInvariant(InternalError):
    """A decomposition, interval, bucket profile or auxiliary multigraph built
    against its own law."""


class NotNicePair(InternalError):
    """A forbidden pattern with two pool vertices exists; carries the witness."""

    def __init__(self, witness):
        super().__init__(f"pattern {tuple(witness)} has two pool vertices")
        self.witness = tuple(witness)


class TooLarge(ValueError):
    """Instance exceeds the exact solver's vertex limit."""


class OracleContractViolation(InternalError):
    """The rainbow oracle returned an outcome that fails verification."""


class OracleExhausted(InternalError):
    """No layer of the rainbow oracle answered; carries the multigraph."""

    def __init__(self, cm):
        super().__init__(f"no rainbow oracle layer answered ({cm.p} colors, {len(cm.u)} edges)")
        self.cm = cm


class PreconditionViolated(InternalError):
    """An add operation was invoked outside its hypothesis; signals a rule bug."""


class Case2SelectionFailed(InternalError):
    """No block interval satisfied the merge budget; signals an invariant bug."""


class RepackFailed(InternalError):
    """The repacking matching could not be saturated; signals an invariant bug."""


class InvalidSolution(ValueError):
    """A solution handed in for lifting or verification does not solve the instance."""
