type stage = Fetch_s | Dispatch_s | Execute_s | Mem_s | Retire_s

type event = {
  seq : int;
  static_id : int;
  klass : Mcd_isa.Inst.iclass;
  stage : stage;
  domain : Mcd_domains.Domain.t;
  start : Mcd_util.Time.t;
  duration : Mcd_util.Time.t;
  dep_seqs : int array;
}

type t = {
  on_event : event -> unit;
  on_marker : Mcd_isa.Walker.marker -> seq:int -> unit;
}

let stage_name = function
  | Fetch_s -> "fetch"
  | Dispatch_s -> "dispatch"
  | Execute_s -> "execute"
  | Mem_s -> "mem"
  | Retire_s -> "retire"

let stage_rank = function
  | Fetch_s -> 0
  | Dispatch_s -> 1
  | Execute_s | Mem_s -> 2
  | Retire_s -> 3
