"""Exception types shared across the package, and the readers' UTF-8 check."""


class SebrangeError(Exception):
    """Base class for package-specific errors."""


class ShapeError(SebrangeError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigError(SebrangeError, ValueError):
    """A configuration value or combination is invalid."""


class ContractError(SebrangeError, TypeError):
    """A caller violated an API contract (e.g. non-scalar objective)."""


class DuplicateEdgeError(SebrangeError, ValueError):
    """The (user, battery, timestep) edge already exists."""


class SampleSizeError(SebrangeError, ValueError):
    """Too few samples for the requested statistic."""


class CheckpointMismatch(SebrangeError, ValueError):
    """Checkpoint was produced under a different resolved configuration."""


class NumericError(SebrangeError, ArithmeticError):
    """A numeric solve failed (singular system, non-finite values)."""


class InputError(SebrangeError, ValueError):
    """An input file could not be read."""


class ParseError(InputError):
    """A data file could not be parsed. Carries the offending line number."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class VersionError(ParseError):
    """A data file header declares an unsupported format version."""


def utf8_error(line: str):
    """A message naming the first byte of ``line`` that is not UTF-8, or None.

    Data and config files are read with ``errors="surrogateescape"``, which
    turns each such byte into a lone surrogate instead of raising mid-read,
    so the reader can report it at its line and after any earlier error.
    """
    if line.isascii():
        return None
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        return f"invalid UTF-8 byte 0x{ord(line[exc.start]) - 0xDC00:02x}"
    return None
