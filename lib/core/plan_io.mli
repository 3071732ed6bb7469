(** Persisting reconfiguration plans.

    Phase 4 of the paper produces an edited binary that can be shipped
    and run many times; here the analogous artifact is the plan — the
    per-node and per-unit frequency settings plus the retained analysis
    data (histograms and path models, so a loaded plan can still be
    re-thresholded at a different slowdown).

    The call tree itself is not serialized: it is a deterministic
    function of (program, training input, context), so the loader
    rebuilds it and verifies a structural fingerprint, refusing to apply
    a plan to a program that has changed shape since training.

    Loading is where reality can diverge from the profile, so
    {!load_result} returns typed diagnostics ({!Mcd_robust.Error.t})
    instead of raising, and implements the degradation policy —
    unrecoverable corruption (unreadable file, bad header, malformed
    line, fingerprint mismatch, out-of-range frequency) rejects the plan
    with the full list of errors, while near-misses (an off-grid but
    in-range frequency, a NaN or negative histogram weight, a setting
    for a node the rebuilt tree does not have) are repaired in place and
    reported as warnings. *)

val fingerprint : Mcd_profiling.Call_tree.t -> string
(** Hex digest of the tree's structure (kinds, parentage, long flags). *)

val to_string : Plan.t -> string
(** The plan's canonical text rendering (the exact bytes {!save}
    writes). Table entries are emitted in sorted key order, so
    structurally equal plans render identically — the result cache
    stores this rendering and compares it byte-wise. *)

val save : Plan.t -> path:string -> unit
(** Write the plan to a text file ([to_string] contents). *)

type loaded = {
  plan : Plan.t;
  warnings : Mcd_robust.Error.t list;
      (** recoverable issues that were repaired: off-grid frequencies
          snapped to the legal grid, bad histogram weights dropped,
          entries for unknown nodes discarded, missing [context] /
          [slowdown] header lines replaced by their defaults *)
}

val of_string_result :
  ?path:string ->
  tree:Mcd_profiling.Call_tree.t ->
  string ->
  (loaded, Mcd_robust.Error.t list) result
(** Parse a plan from its text rendering, attaching it to a freshly
    rebuilt tree. [path] (default ["<string>"]) only labels
    diagnostics. Same degradation policy as {!load_result}. *)

val load_result :
  path:string ->
  tree:Mcd_profiling.Call_tree.t ->
  (loaded, Mcd_robust.Error.t list) result
(** Read a plan back, attaching it to a freshly rebuilt tree. [Error]
    carries every unrecoverable diagnostic found (never an empty
    list); the file's remaining content is not partially applied. *)

val validate : Plan.t -> Mcd_robust.Error.t list
(** The full validation pass over an in-memory plan: setting arity and
    frequency legality per node and per unit, histogram shape and
    weight sanity, node ids against the attached tree, slowdown
    tolerance. An empty list means the plan respects every invariant
    the run-time layers assume. *)
