#!/usr/bin/env python
"""Bring your own controller: Verilog in, covering test vectors out.

The methodology is not PP-specific ("its applicability is not limited to
just processors" -- section 4).  This example pushes a little two-module
bus-arbiter design through the whole flow:

1. parse + elaborate the annotated Verilog,
2. translate it to a Synchronous Murphi model (clocked regs -> state,
   free inputs -> nondeterministic choices),
3. enumerate every reachable control state,
4. generate transition tours covering every arc,
5. emit per-cycle input force vectors for the first tour.

Usage::

    python examples/translate_your_verilog.py
"""

from repro.enumeration import enumerate_states
from repro.tour import IndexedTourGenerator, arc_coverage
from repro.translate import input_vectors_for_walk, translate_verilog

ARBITER = """
// A round-robin two-requester bus arbiter with a handshake to a shared
// resource that acknowledges asynchronously.
module channel (
  input clk,
  input start,
  input ack,            // asynchronous completion from the resource
  output wire busy
);
  // @state
  reg [1:0] st;         // 0 idle, 1 waiting grant, 2 transferring
  assign busy = st != 0;
  always @(posedge clk) begin
    case (st)
      0: if (start) st <= 1;
      1: st <= 2;
      2: if (ack) st <= 0;
      default: st <= 0;
    endcase
  end
endmodule

module arbiter (
  input clk,
  input req_a,
  input req_b,
  input ack,
  output wire granted
);
  // @state
  reg turn;             // round-robin pointer
  wire busy_a;
  wire busy_b;
  wire idle = !busy_a && !busy_b;
  wire start_a = req_a && idle && (turn == 0 || !req_b);
  wire start_b = req_b && idle && !start_a;
  channel a (.clk(clk), .start(start_a), .ack(ack), .busy(busy_a));
  channel b (.clk(clk), .start(start_b), .ack(ack), .busy(busy_b));
  assign granted = busy_a || busy_b;
  always @(posedge clk) begin
    if (start_a) turn <= 1;
    if (start_b) turn <= 0;
  end
endmodule
"""


def main() -> None:
    print("translating the arbiter design...")
    model, flat = translate_verilog(ARBITER, top="arbiter")
    print(f"  state variables: {model.state_var_names}")
    print(f"  free inputs (abstract environment): {model.choice_names}")
    print(f"  state encoding: {model.state_bits()} bits")

    print("\nenumerating from reset...")
    graph, stats = enumerate_states(model)
    print(f"  {stats.num_states} reachable states, {stats.num_edges} arcs "
          f"(of {2 ** stats.bits_per_state} possible states)")

    print("\ngenerating transition tours...")
    tours = IndexedTourGenerator(graph, max_instructions_per_trace=64).generate()
    report = arc_coverage(graph, (t.edge_indices for t in tours))
    print(f"  {tours.stats.num_traces} tours, "
          f"{tours.stats.total_edge_traversals} traversals, "
          f"coverage complete: {report.complete}")

    print("\nforce vectors for the first 12 cycles of tour 0:")
    vectors = input_vectors_for_walk(model, graph, tours.tours[0].edge_indices)
    header = list(model.choice_names)
    print("  cycle  " + "  ".join(f"{h:>6}" for h in header))
    for cycle, vector in enumerate(vectors[:12]):
        print(f"  {cycle:>5}  " + "  ".join(f"{vector[h]:>6}" for h in header))
    print(f"  ... {len(vectors)} cycles total")


if __name__ == "__main__":
    main()
