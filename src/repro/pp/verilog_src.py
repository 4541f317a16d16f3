"""The PP control logic in Verilog -- the translator's flagship input.

This is the paper's actual flow: the design exists as (annotated,
synthesizable) Verilog, the HDL translator converts it to a Synchronous
Murphi model, and the designer supplies abstract environment models for
the interfaces (here: the ``pp_control_choices`` choice points, with the
same guards the hand-written model in :mod:`repro.pp.fsm_model` uses).

The control is written as one flat module, the way the synthesis
partition of the real PP's control section would look: one combinational
block computing all ``*_n`` next-state values, one clocked block latching
them.  Encodings mirror the hand model exactly, so
:func:`build_pp_control_model_from_verilog` enumerates to *the same
state graph*, arc for arc, as the hand-built model -- the equivalence
test that anchors the translation path.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.hdl.elaborate import FlatDesign
from repro.pp.fsm_model import PPModelConfig
from repro.smurphi import BoolType, ChoicePoint, RangeType, SyncModel
from repro.translate import translate_verilog

#: Encodings shared between the Verilog and the abstract environment.
CLASS_BUBBLE, CLASS_ALU, CLASS_LD, CLASS_SD, CLASS_SWITCH, CLASS_SEND = range(6)
IREFILL_IDLE, IREFILL_REQ, IREFILL_FILL, IREFILL_FIXUP = range(4)
DREFILL_IDLE, DREFILL_SPILL, DREFILL_REQ, DREFILL_FILL_CRIT, DREFILL_FILL_REST = range(5)
SPILL_EMPTY, SPILL_HELD, SPILL_WB = range(3)
OWNER_NONE, OWNER_LOAD, OWNER_STORE = range(3)


def pp_control_verilog(fill_words: int = 2) -> str:
    """The PP control section as annotated Verilog source."""
    if fill_words < 1:
        raise ValueError("fill_words must be >= 1")
    return f"""
// Protocol Processor control section (synthesis partition).
// Datapath values are already reduced to distinguished cases at this
// boundary: instructions arrive as one of five classes, addresses as a
// hit/miss bit, the victim as a dirty bit.
module pp_control (
  input clk,
  input [2:0] fetch_class,   // @free abstract decoded instruction class
  input i_hit,               // @free abstract I-cache tag compare
  input d_hit,               // @free abstract D-cache tag compare
  input conflict,            // @free pending-store line comparator
  input victim_dirty,        // @free abstract victim dirty bit
  input inbox_ready,         // @free Inbox handshake
  input outbox_ready,        // @free Outbox handshake
  input mem_word,            // @free memory controller word-valid pacing
  output stall
);
  localparam FW = {fill_words};

  localparam BUBBLE = 0, ALU = 1, LD = 2, SD = 3, SWITCH = 4, SEND = 5;
  localparam I_IDLE = 0, I_REQ = 1, I_FILL = 2, I_FIXUP = 3;
  localparam D_IDLE = 0, D_SPILL = 1, D_REQ = 2, D_CRIT = 3, D_REST = 4;
  localparam SP_EMPTY = 0, SP_HELD = 1, SP_WB = 2;
  localparam OWN_NONE = 0, OWN_LOAD = 1, OWN_STORE = 2;

  // Abstract pipeline instruction registers (Fig. 3.2).
  // @state
  reg [2:0] ifq;
  // @state
  reg [2:0] ex;
  // @state
  reg [2:0] mem;
  // ICache refill FSM.
  // @state
  reg [1:0] irefill;
  // @state
  reg [2:0] ifill_cnt;
  // DCache refill FSM.
  // @state
  reg [2:0] drefill;
  // @state
  reg [2:0] dfill_cnt;
  // Fill/Spill FSM.
  // @state
  reg [1:0] spill;
  // Split-store pending flag (cache conflict FSM).
  // @state
  reg st_pend;
  // Which access owns the in-flight D-refill.
  // @state
  reg [1:0] miss_owner;

  // Fetch classes outside the five defined ones decode as ALU.
  wire [2:0] fclass = (fetch_class == 0 || fetch_class > 5) ? 3'd1 : fetch_class;

  // Shared memory port: one owner at a time, D-fill > I-fill > write-back.
  wire port_d = (drefill == D_CRIT) || (drefill == D_REST);
  wire port_i = (irefill == I_FILL);
  wire port_wb = (spill == SP_WB);
  wire delivered = (port_d || port_i || port_wb) && mem_word;
  wire d_critical = port_d && delivered && (drefill == D_CRIT);
  wire d_fill_done = port_d && delivered &&
      ((drefill == D_CRIT && FW == 1) ||
       (drefill == D_REST && (dfill_cnt + 1 >= FW)));
  wire dcache_busy = (drefill != D_IDLE) || (spill == SP_WB);

  // translate_off
  // Diagnostic-only monitor, excluded from the FSM model.
  reg [31:0] debug_cycle_counter;
  // translate_on

  reg [2:0] ifq_n;
  reg [2:0] ex_n;
  reg [2:0] mem_n;
  reg [1:0] irefill_n;
  reg [2:0] ifill_cnt_n;
  reg [2:0] drefill_n;
  reg [2:0] dfill_cnt_n;
  reg [1:0] spill_n;
  reg st_pend_n;
  reg [1:0] miss_owner_n;
  reg mem_done;
  reg conflict_drained;
  reg port_busy_next;
  reg [2:0] ifq_after;

  assign stall = (irefill != I_IDLE) || (drefill != D_IDLE);

  always @(*) begin
    ifq_n = ifq;
    ex_n = ex;
    mem_n = mem;
    irefill_n = irefill;
    ifill_cnt_n = ifill_cnt;
    drefill_n = drefill;
    dfill_cnt_n = dfill_cnt;
    spill_n = spill;
    st_pend_n = st_pend;
    miss_owner_n = miss_owner;
    mem_done = 0;
    conflict_drained = 0;
    port_busy_next = 0;
    ifq_after = ifq;

    // ---- word delivery on the shared port.
    if (port_d && delivered) begin
      if (drefill == D_CRIT) begin
        if (FW == 1) begin
          drefill_n = D_IDLE;
          dfill_cnt_n = 0;
        end else begin
          drefill_n = D_REST;
          dfill_cnt_n = 1;
        end
      end else begin
        dfill_cnt_n = dfill_cnt + 1;
        if (dfill_cnt + 1 >= FW) begin
          drefill_n = D_IDLE;
          dfill_cnt_n = 0;
        end
      end
    end else if (port_i && delivered) begin
      ifill_cnt_n = ifill_cnt + 1;
      if (ifill_cnt + 1 >= FW) begin
        irefill_n = I_FIXUP;
        ifill_cnt_n = 0;
      end
    end else if (port_wb && delivered) begin
      spill_n = SP_EMPTY;
    end

    // ---- FSM housekeeping (no port needed).
    if (drefill == D_SPILL) drefill_n = D_REQ;
    if (irefill == I_FIXUP) irefill_n = I_IDLE;

    // ---- port grants, priority D > I > spill write-back.
    port_busy_next = (drefill_n == D_CRIT) || (drefill_n == D_REST) ||
                     (irefill_n == I_FILL) || (spill_n == SP_WB);
    if (drefill_n == D_REQ && drefill == D_REQ && !port_busy_next) begin
      drefill_n = D_CRIT;
      port_busy_next = 1;
    end
    if (irefill_n == I_REQ && !port_busy_next && drefill_n == D_IDLE) begin
      irefill_n = I_FILL;
      port_busy_next = 1;
    end
    if (spill_n == SP_HELD && drefill_n == D_IDLE && !port_busy_next &&
        irefill_n != I_FILL) begin
      spill_n = SP_WB;
    end

    // ---- MEM stage.
    if (mem == BUBBLE || mem == ALU) begin
      mem_done = 1;
    end else if (mem == LD) begin
      if (miss_owner == OWN_LOAD) begin
        if (d_critical) begin
          miss_owner_n = OWN_NONE;
          mem_done = 1;          // critical-word-first restart
        end
      end else if (st_pend && conflict) begin
        st_pend_n = 0;           // conflict stall: drain, retry next cycle
        conflict_drained = 1;
      end else if (!dcache_busy) begin
        if (d_hit) begin
          mem_done = 1;
        end else begin
          if (st_pend) st_pend_n = 0;  // drain before the victim spill
          if (victim_dirty) begin
            drefill_n = D_SPILL;       // fill-before-spill
            spill_n = SP_HELD;
          end else begin
            drefill_n = D_REQ;
          end
          dfill_cnt_n = 0;
          miss_owner_n = OWN_LOAD;
        end
      end
    end else if (mem == SD) begin
      if (miss_owner == OWN_STORE) begin
        if (drefill_n == D_IDLE && d_fill_done) begin
          miss_owner_n = OWN_NONE;
          st_pend_n = 1;         // split store posted after refill
          mem_done = 1;
        end
      end else if (st_pend) begin
        st_pend_n = 0;           // second store: conflict stall to drain
        conflict_drained = 1;
      end else if (!dcache_busy) begin
        if (d_hit) begin
          st_pend_n = 1;         // split store: probe now, data write later
          mem_done = 1;
        end else begin
          if (victim_dirty) begin
            drefill_n = D_SPILL;
            spill_n = SP_HELD;
          end else begin
            drefill_n = D_REQ;
          end
          dfill_cnt_n = 0;
          miss_owner_n = OWN_STORE;
        end
      end
    end else if (mem == SWITCH) begin
      mem_done = inbox_ready;    // external stall while the Inbox waits
    end else if (mem == SEND) begin
      mem_done = outbox_ready;
    end

    // ---- split store's idle-cycle data write.
    if (st_pend_n && !conflict_drained && (mem == BUBBLE || mem == ALU) &&
        drefill == D_IDLE) begin
      st_pend_n = 0;
    end

    // ---- pipe advance.
    if (mem_done) begin
      mem_n = ex;
      ex_n = ifq;
      ifq_after = BUBBLE;
    end

    // ---- fetch.
    if (irefill == I_IDLE && ifq_after == BUBBLE) begin
      if (i_hit) ifq_after = fclass;
      else irefill_n = I_REQ;
    end
    ifq_n = ifq_after;
  end

  always @(posedge clk) begin
    ifq <= ifq_n;
    ex <= ex_n;
    mem <= mem_n;
    irefill <= irefill_n;
    ifill_cnt <= ifill_cnt_n;
    drefill <= drefill_n;
    dfill_cnt <= dfill_cnt_n;
    spill <= spill_n;
    st_pend <= st_pend_n;
    miss_owner <= miss_owner_n;
  end
endmodule
"""


def pp_control_choices() -> list:
    """The abstract environment for the translated PP control: the same
    guarded choice points the hand-built model declares, on the Verilog
    module's integer encodings."""
    return [
        ChoicePoint(
            "fetch_class", RangeType(CLASS_ALU, CLASS_SEND),
            guard=lambda s: s["irefill"] == IREFILL_IDLE,
        ),
        ChoicePoint(
            "i_hit", RangeType(0, 1),
            guard=lambda s: s["irefill"] == IREFILL_IDLE, inactive_value=1,
        ),
        ChoicePoint(
            "d_hit", RangeType(0, 1),
            guard=lambda s: s["mem"] in (CLASS_LD, CLASS_SD), inactive_value=1,
        ),
        ChoicePoint(
            "conflict", RangeType(0, 1),
            guard=lambda s: s["mem"] == CLASS_LD and s["st_pend"] == 1,
        ),
        ChoicePoint(
            "victim_dirty", RangeType(0, 1),
            guard=lambda s: s["mem"] in (CLASS_LD, CLASS_SD),
        ),
        ChoicePoint(
            "inbox_ready", RangeType(0, 1),
            guard=lambda s: s["mem"] == CLASS_SWITCH, inactive_value=1,
        ),
        ChoicePoint(
            "outbox_ready", RangeType(0, 1),
            guard=lambda s: s["mem"] == CLASS_SEND, inactive_value=1,
        ),
        ChoicePoint(
            "mem_word", RangeType(0, 1),
            guard=lambda s: (
                s["drefill"] in (DREFILL_FILL_CRIT, DREFILL_FILL_REST)
                or s["irefill"] == IREFILL_FILL
                or s["spill"] == SPILL_WB
            ),
            inactive_value=1,
        ),
    ]


def build_pp_control_model_from_verilog(
    config: Optional[PPModelConfig] = None,
) -> Tuple[SyncModel, FlatDesign]:
    """The paper's real flow: PP control Verilog -> FSM model.

    Returns the translated model plus the flat design (for annotation
    statistics).  The model enumerates to the same graph as the
    hand-built :func:`repro.pp.fsm_model.build_pp_control_model` for the
    same ``fill_words`` (tested arc for arc at fill_words 1 to 4).
    """
    config = config or PPModelConfig(fill_words=2)
    source = pp_control_verilog(fill_words=config.fill_words)
    return translate_verilog(
        source, top="pp_control", choices_override=pp_control_choices()
    )
