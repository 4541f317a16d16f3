"""Error types for the Verilog front end and translator."""

from __future__ import annotations


class HdlError(Exception):
    """Base class for all HDL front-end errors."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class LexError(HdlError):
    """Unrecognized input at the character level."""


class ParseError(HdlError):
    """Input does not conform to the supported Verilog subset."""


class ElaborationError(HdlError):
    """Hierarchy cannot be flattened (missing modules, bad connections)."""


class TranslationError(HdlError):
    """A construct cannot be mapped to the Synchronous Murphi semantics
    (combinational loops, reads that may meet an unassigned net, width
    overflows...), or a translated ``next_state`` was given other keys
    than the model's state variables and free inputs."""
