"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """A documented precondition of an operation was violated."""


class IllegalSwitch(ContractViolation):
    """Switching the two steps would not produce a valid filtration."""


class IllegalExpansion(ContractViolation):
    """The simplex cannot be expanded at this position."""


class IllegalContraction(ContractViolation):
    """The two steps at this position do not form a contractible pair."""


class IllegalTransposition(ContractViolation):
    """The two cells are boundary-adjacent and cannot be transposed."""


class UnsupportedOnFzzPath(ContractViolation):
    """Outward expansion/contraction cannot run on the converted filtration."""

    def __init__(self, op: str, position: int):
        super().__init__(f"{op} at position {position} is not supported by the "
                         f"converted-filtration engine; use the representative engine")
        self.op = op
        self.position = position


class CheckFailed(AssertionError):
    """A check failed: a checked band disagrees with its reference (a
    derived layout with canonical_layout's, or the band's barcode with the
    from-scratch oracle's), or a checked update's engine disagrees with the
    oracle, the other engine or its own certificate."""


class Exhausted(RuntimeError):
    """No legal operation exists at the current state."""
