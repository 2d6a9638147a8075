"""Exception types shared across the toolkit."""


class SpecError(Exception):
    """A value violates a structural precondition (unknown clock, bad domain)."""


class ZoneLimitExceeded(Exception):
    """Over the zone limit: not a ``SpecError``, which judgements report."""

    def __init__(self, what: str, limit: int):
        super().__init__(f"{what} needs more than {limit} zones, the limit")


class ParseError(Exception):
    """Syntax or scoping error in the surface DSLs, with source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}" if line else message)


class ProtocolError(Exception):
    """A message arrived that the receiving type cannot accept (sort mismatch)."""
