"""Exception taxonomy shared by all qfall modules."""


class SimulationError(Exception):
    """Base class for all qfall errors."""


class ConfigurationError(SimulationError):
    """Invalid grid, solver, or experiment settings; ``key`` names the value
    at fault (a setting, or a quantity derived from several), when one
    does."""

    def __init__(self, message, key=None):
        self.key = key
        super().__init__(message)


class ParseError(ConfigurationError):
    """Config-file error carrying the offending key and line number."""

    def __init__(self, message, key=None, line=None):
        self.line = line
        loc = ""
        if key is not None:
            loc += f" (key '{key}'"
            loc += f", line {line})" if line is not None else ")"
        elif line is not None:
            loc += f" (line {line})"
        super().__init__(message + loc, key)


class DomainError(SimulationError):
    """Wavefunction support conflicts with the spatial domain."""


class PreconditionError(SimulationError):
    """An operation was called outside its contract."""


class DegenerateStateError(SimulationError):
    """Superposition coefficients produce a zero-norm state."""


class DegenerateCrossingError(SimulationError):
    """Mean velocity vanishes at the detector crossing."""


class NoCrossingError(SimulationError):
    """The mean trajectory never reaches the detector plane."""


class InfeasibleTargetError(SimulationError):
    """Requested mean velocity exceeds what the state family can carry.

    Carries ``v_max``, the largest magnitude reachable on the principal
    phase branch of the family.
    """

    def __init__(self, message, v_max):
        self.v_max = v_max
        super().__init__(f"{message} (reachable |v| <= {v_max!r})")


class BoundaryBreachError(SimulationError):
    """Probability reached the edge of the periodic domain mid-run; carries
    the step where it did."""

    def __init__(self, message, step_index):
        self.step_index = step_index
        super().__init__(f"{message} (step {step_index})")
