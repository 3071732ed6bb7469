(** Application editing (phase 4 of the paper).

    The paper rewrites binaries, inserting label-tracking instrumentation
    in prologues/epilogues and reconfiguration writes at long-running
    nodes, then lets the simulator charge a fixed penalty per executed
    point. This module is the equivalent step for our IR programs: from
    a {!Plan.t} it produces the {!Mcd_cpu.Controller.t} that reproduces
    exactly what the inserted code would do at run time — maintain the
    current call-tree label (for path-tracking contexts), write the
    reconfiguration register with the planned frequencies on entry to a
    long-running region, and restore the caller's setting on exit — and
    reports each executed point's cost so the pipeline can charge it.

    Per-point costs follow Section 3.4: about 9 front-end cycles for an
    instrumentation point that accesses the label lookup table, about 17
    for a reconfiguration point (label table plus frequency table plus
    register write), about 2 for a loop header or call-site offset
    update, and 1 cycle (virtually zero: the write schedules into spare
    slots) for the static reconfiguration points of the L+F and F
    schemes. *)

type counters = {
  mutable reconfig_execs : int;
      (** reconfiguration points executed (charged register writes) *)
  mutable instr_execs : int;
      (** instrumentation-only points executed (charged, no write) *)
}

type edited = { controller : Mcd_cpu.Controller.t; counters : counters }

val edit : Plan.t -> edited
(** Build the run-time policy for the plan's context, counted by
    {!count}. The returned controller is single-use: it carries run
    state (label stack, saved settings). Call [edit] again for every
    simulation. *)

val count : Mcd_cpu.Controller.t -> edited
(** Wrap a controller so it counts the marker points it executes: a
    reaction the pipeline charges ({!Mcd_cpu.Controller.charged}) is a
    point, a reconfiguration point when it also writes. Markers inside
    instances phase sampling skips never reach the controller. *)

val instr_stall_cycles : int
(** 9 *)

val reconfig_stall_cycles : int
(** 17 *)

val offset_stall_cycles : int
(** 2: loop header / call-site label offset update *)

val static_reconfig_stall_cycles : int
(** 1: L+F / F reconfiguration points *)
