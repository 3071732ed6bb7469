(** Primitive-event probe for off-line analysis.

    When a probe is attached, the pipeline reports every primitive event
    — temporally contiguous work performed within a single hardware unit
    on behalf of a single instruction — together with its data
    dependences, and every phase marker with its position in the dynamic
    instruction stream. The trace library assembles these into the
    dependence DAG the shaker algorithm consumes. *)

type stage =
  | Fetch_s  (** front-end: fetch + decode *)
  | Dispatch_s  (** front-end: rename + ROB/queue insertion *)
  | Execute_s  (** integer or floating-point execution *)
  | Mem_s  (** load/store unit + cache hierarchy *)
  | Retire_s  (** front-end: commit *)

type event = {
  seq : int;  (** dynamic instruction this event belongs to *)
  static_id : int;
  klass : Mcd_isa.Inst.iclass;
  stage : stage;
  domain : Mcd_domains.Domain.t;
  start : Mcd_util.Time.t;
  duration : Mcd_util.Time.t;
  dep_seqs : int array;
      (** producer instructions whose results this event consumes
          (data dependences); populated on [Execute_s] and [Mem_s] *)
}

type t = {
  on_event : event -> unit;
  on_marker : Mcd_isa.Walker.marker -> seq:int -> unit;
      (** [seq] is the number of dynamic instructions emitted before the
          marker, i.e. the stream position at which the phase boundary
          falls *)
}

val stage_name : stage -> string

val stage_rank : stage -> int
(** Pipeline position of a stage within its instruction: fetch 0,
    dispatch 1, execute and mem 2, retire 3. Event streams are sorted by
    (seq, stage rank). *)
