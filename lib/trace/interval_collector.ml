module Vec = Mcd_util.Vec
module Probe = Mcd_cpu.Probe

type t = {
  interval : int;
  max_events : int;
  buckets : Probe.event Vec.t Vec.t;
}

let create ?(interval_insts = 10_000) ?(max_events_per_interval = 80_000) () =
  {
    interval = interval_insts;
    max_events = max_events_per_interval;
    buckets = Vec.create ();
  }

let bucket_for t seq =
  let idx = seq / t.interval in
  while Vec.length t.buckets <= idx do
    Vec.push t.buckets (Vec.create ())
  done;
  Vec.get t.buckets idx

let on_event t (ev : Probe.event) =
  let bucket = bucket_for t ev.Probe.seq in
  if Vec.length bucket < t.max_events then Vec.push bucket ev

let probe t =
  { Probe.on_event = on_event t; on_marker = (fun _ ~seq:_ -> ()) }

let intervals t =
  Vec.to_list t.buckets
  |> List.map (fun bucket -> Collector.sort_events (Vec.to_array bucket))

let interval_insts t = t.interval
