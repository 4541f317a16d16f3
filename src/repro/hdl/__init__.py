"""Synthesizable-Verilog front end for the HDL-to-FSM translator.

Section 3.1 of the paper: the methodology derives all models directly from
the design's Verilog, so bugs present in the RTL are present in the FSM
model.  A *stylized synthesizable subset* is enough -- the Verilog model of
concurrency (implicit clock advances when all variables are stable) maps
one-to-one onto Synchronous Murphi's explicit state/non-state split.

Supported subset:

- modules with ANSI port lists, ``wire``/``reg`` declarations with ranges,
  ``parameter``/``localparam`` constants;
- continuous ``assign``;
- ``always @(posedge clk)`` blocks with non-blocking assignments (state);
- ``always @(*)`` blocks with blocking assignments (combinational);
- ``if``/``else``, ``case``/``default``, ``begin``/``end``;
- the usual operator set, sized/based literals, ternaries, concatenation-free
  expressions;
- module instantiation with named port connections (flattened by
  :mod:`repro.hdl.elaborate`);
- comment-embedded directives: ``// @state`` (control-state annotation),
  ``// @reset <n>`` (reset value), ``// @free`` (input permuted by the
  enumerator), ``// translate_off`` / ``// translate_on`` (skip
  diagnostic-only code).

Translation (:mod:`repro.translate`) rejects what would fail when the
model runs: combinational latches and loops, multiple drivers, an
assignment of the wrong kind for its block, a reduction of anything but
a plain net, a read of an undeclared net, a clocked read of a net
nothing drives, and a combinational read before every path assigns.
"""

from repro.hdl.errors import HdlError, LexError, ParseError, ElaborationError
from repro.hdl.lexer import tokenize, Token
from repro.hdl.parser import parse
from repro.hdl import ast
from repro.hdl.elaborate import elaborate, FlatDesign

__all__ = [
    "HdlError",
    "LexError",
    "ParseError",
    "ElaborationError",
    "tokenize",
    "Token",
    "parse",
    "ast",
    "elaborate",
    "FlatDesign",
]
