"""Exception types, and the checks on loaded records, shared across the package."""

import json


class LengthMismatchError(ValueError):
    """Two fixed-length objects (bit vectors, operators, states) disagree on length."""


class NonHermitianSignError(ValueError):
    """A Pauli operator carries phase +-i where a plain sign was required.

    Products of graph-state stabilizer generators always have phase 0 or 2;
    hitting this error means an upstream bookkeeping bug.
    """


class UnsupportedInputError(ValueError):
    """Input outside the supported domain (disconnected graph, too few qubits)."""


class ResourceLimitError(RuntimeError):
    """A guard against search or memory blow-up fired."""


class ParseError(ValueError):
    """Malformed graph or distribution text. Carries the offending position."""

    def __init__(self, message, text=None, position=None):
        self.message = message
        self.text = text
        self.position = position
        super().__init__(str(self))

    def __str__(self):
        if self.position is None:
            return self.message
        return f"{self.message} (at position {self.position})"


def record_field(data, key: str, kind: type):
    """``data[key]`` of a loaded record, of exactly type ``kind`` (so ``True``
    is not an int); ValueError otherwise."""
    value = data.get(key) if isinstance(data, dict) else None
    if type(value) is not kind:
        raise ValueError(f"record field {key!r} is missing or not of type {kind.__name__}")
    return value


def _json_text(value):
    try:
        return json.dumps(value, sort_keys=True)
    except (TypeError, ValueError):  # not JSON, so never the program's own
        return None


def require_own_record(data: dict, own: dict) -> None:
    """Raise ValueError naming every top-level field where the loaded record
    ``data`` differs from ``own``, the record the program writes for the same
    inputs.  Fields are compared as canonical JSON text, so ``2.0`` or
    ``true`` never stands in for the integer the program writes."""
    fields = sorted(
        k for k in data.keys() | own.keys()
        if k not in data or k not in own or _json_text(data[k]) != _json_text(own[k])
    )
    if fields:
        raise ValueError(f"record differs from the program's own in: {', '.join(fields)}")
