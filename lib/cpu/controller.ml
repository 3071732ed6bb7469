type sample = {
  elapsed_cycles : int;
  avg_occupancy : float array;
  retired : int;
  total_retired : int;
  l1d_misses : int;
  l2_misses : int;
  target_mhz : int array;
  current_mhz : float array;
}

type reaction = {
  stall_cycles : int;
  table_reads : int;
  set : Mcd_domains.Reconfig.setting option;
}

let no_reaction = { stall_cycles = 0; table_reads = 0; set = None }
let charged r = r.stall_cycles > 0 || r.table_reads > 0

type t = {
  name : string;
  on_marker : Mcd_isa.Walker.marker -> now:Mcd_util.Time.t -> reaction;
  on_sample :
    sample -> now:Mcd_util.Time.t -> Mcd_domains.Reconfig.setting option;
  sample_interval_cycles : int;
}

let nop =
  {
    name = "baseline";
    on_marker = (fun _ ~now:_ -> no_reaction);
    on_sample = (fun _ ~now:_ -> None);
    sample_interval_cycles = 0;
  }
