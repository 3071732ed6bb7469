(** Deterministic fault injection for the profile→edit→run pipeline.

    Each fault is a named, enumerable variant, and every stochastic
    choice (which byte to flip, which field to mutate, which domain to
    pin) draws from an {!Mcd_util.Rng} stream, so a campaign run with a
    given seed is bit-reproducible.

    Faults come in two layers. {e Artifact faults} corrupt a saved
    plan file on disk — what happens when a shipped profile is
    truncated in transit, bit-rotted, or simply stale. {e Runtime
    faults} corrupt the machine's reconfiguration behaviour — a domain
    whose frequency is stuck, register writes that are silently lost, a
    voltage ramp that never completes. {!all} lists both layers: the
    robustness campaign's eight fault classes.

    The experiment daemon's crash safety is attacked by the chaos
    harness ([tools/chaos_smoke.ml]) instead, with two mechanisms from
    this module — {!crash_compute} and {!tear_file} — and a [SIGKILL]
    of the live server. Those have no campaign fault names. *)

type file_fault =
  | Truncate  (** drop the tail of the file *)
  | Bit_flip  (** flip one random bit somewhere in the file *)
  | Mutate_frequency
      (** rewrite one frequency field of a node/unit setting to a
          corrupt value (out of range or off the legal grid) *)
  | Stale_fingerprint
      (** replace the tree fingerprint, modelling a plan trained on an
          older build of the program *)
  | Drop_lines  (** delete random interior lines (lost trace events) *)

type runtime_fault =
  | Stuck_domain
      (** one domain is pinned at a random legal frequency and ignores
          every reconfiguration write *)
  | Lost_writes
      (** each reconfiguration-register write is silently dropped with
          probability 1/2 *)
  | Frozen_slew
      (** one domain accepts targets but its ramp never moves *)

type fault = File of file_fault | Runtime of runtime_fault

val all : fault list
(** Every fault class, in a fixed order — the robustness campaign
    grid. *)

val name : fault -> string

val of_name : string -> fault option
(** Resolves every fault in {!all}. *)

val names : string list
(** Names of {!all}. *)

val corrupt_file : file_fault -> rng:Mcd_util.Rng.t -> path:string -> unit
(** Corrupt the plan file at [path] in place. When a fault has no
    applicable site (e.g. [Mutate_frequency] on a plan with no
    settings), it degenerates to [Bit_flip] so the file is always
    actually corrupted. *)

val dvfs_faults :
  runtime_fault -> rng:Mcd_util.Rng.t -> Mcd_domains.Dvfs.fault list
(** The hardware faults to pass to {!Mcd_cpu.Pipeline.run} for
    [Stuck_domain] and [Frozen_slew]; empty for [Lost_writes]. *)

val harness :
  runtime_fault -> rng:Mcd_util.Rng.t -> Mcd_cpu.Controller.t ->
  Mcd_cpu.Controller.t
(** Interpose the fault between a policy and the reconfiguration
    register: under [Lost_writes], settings emitted by the policy are
    dropped with probability 1/2 before they reach the hardware. The
    other runtime faults live in the hardware model and leave the
    controller untouched. *)

(** {2 Daemon crash mechanisms}

    Building blocks the chaos harness composes around a server's
    [compute] seam or journal file. *)

val crash_compute : ?after_s:float -> unit -> 'a -> 'b
(** A compute that sleeps [after_s] (default 0) and then kills the
    whole process with [Unix._exit 9]: a worker dying mid-job, which
    leaves the job incomplete in the journal for replay (a raising
    compute would fail it terminally instead). Never returns. *)

val tear_file : rng:Mcd_util.Rng.t -> path:string -> unit
(** Cut 1–80 bytes off the file's tail in place: a journal append torn
    by a crash. No-op on an empty file. *)
