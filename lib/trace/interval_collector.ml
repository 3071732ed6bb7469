module Vec = Mcd_util.Vec
module Probe = Mcd_cpu.Probe

type t = {
  interval : int;
  max_events : int;
  (* bucket [i] files instructions [i * interval, (i + 1) * interval);
     every bucket below [next] has been handed off and emptied *)
  buckets : Probe.event Vec.t Vec.t;
  mutable next : int;
  slots : Slot_order.t;
  consume : Probe.event array -> unit;
  retained : Probe.event array Vec.t; (* what the default consumer keeps *)
}

let create ?(interval_insts = 10_000) ?(max_events_per_interval = 80_000)
    ?on_interval () =
  let retained = Vec.create () in
  {
    interval = interval_insts;
    max_events = max_events_per_interval;
    buckets = Vec.create ();
    next = 0;
    slots = Slot_order.create ();
    consume = (match on_interval with Some f -> f | None -> Vec.push retained);
    retained;
  }

let hand_off t =
  let i = t.next in
  let bucket = Vec.get t.buckets i in
  Vec.set t.buckets i (Vec.create ());
  t.next <- i + 1;
  t.consume (Slot_order.order t.slots bucket)

let on_event t (ev : Probe.event) =
  let idx = ev.Probe.seq / t.interval in
  if idx < t.next then
    invalid_arg "Interval_collector: event of an interval already handed off";
  while Vec.length t.buckets <= idx do
    Vec.push t.buckets (Vec.create ())
  done;
  let bucket = Vec.get t.buckets idx in
  if Vec.length bucket < t.max_events then Vec.push bucket ev;
  match ev.Probe.stage with
  | Probe.Retire_s ->
      (* retirement is in order and retire is an instruction's last
         event, so every instruction below [seq + 1] is done *)
      while (t.next + 1) * t.interval <= ev.Probe.seq + 1 do
        hand_off t
      done
  | Probe.Fetch_s | Probe.Dispatch_s | Probe.Execute_s | Probe.Mem_s -> ()

let probe t =
  { Probe.on_event = on_event t; on_marker = (fun _ ~seq:_ -> ()) }

let finish t =
  while t.next < Vec.length t.buckets do
    hand_off t
  done

let intervals t =
  finish t;
  Vec.to_list t.retained
