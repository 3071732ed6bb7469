module Vec = Mcd_util.Vec
module Probe = Mcd_cpu.Probe
module Call_tree = Mcd_profiling.Call_tree
module Tracker = Mcd_profiling.Tracker

(* An attribution interval: instructions [start_seq, end_seq) belong to
   [target] (a long-running node) or to nobody. [buf = None] means the
   interval is not recorded (no target or over cap) or was handed off. *)
type interval = {
  start_seq : int;
  mutable end_seq : int; (* max_int while open *)
  target : int; (* node id; -1 = none *)
  mutable buf : Probe.event Vec.t option;
}

type t = {
  tree : Call_tree.t;
  tracker : Tracker.t;
  max_segments : int;
  max_events : int;
  intervals : interval Vec.t;
  mutable next : int; (* every interval below [next] was handed off *)
  mutable retired : int; (* instructions [0, retired) have retired *)
  slots : Slot_order.t;
  seg_count : (int, int) Hashtbl.t; (* node id -> recorded segments *)
  (* current innermost long-node stack; head = attribution target *)
  mutable long_stack : int list;
  (* one bool per tracker frame we entered: was it a long node? *)
  mutable shadow : bool list;
  consume : int -> Probe.event array -> unit;
  retained : (int * Probe.event array) Vec.t; (* the default consumer's *)
}

let create ~tree ?(max_segments_per_node = 4)
    ?(max_events_per_segment = 200_000) ?on_segment () =
  let retained = Vec.create () in
  let t =
    {
      tree;
      tracker = Tracker.create tree;
      max_segments = max_segments_per_node;
      max_events = max_events_per_segment;
      intervals = Vec.create ();
      next = 0;
      retired = 0;
      slots = Slot_order.create ();
      seg_count = Hashtbl.create 32;
      long_stack = [];
      shadow = [];
      consume =
        (match on_segment with
        | Some f -> f
        | None -> fun node_id events -> Vec.push retained (node_id, events));
      retained;
    }
  in
  Vec.push t.intervals
    { start_seq = 0; end_seq = max_int; target = -1; buf = None };
  t

let hand_off t =
  let iv = Vec.get t.intervals t.next in
  t.next <- t.next + 1;
  match iv.buf with
  | Some buf ->
      iv.buf <- None;
      if Vec.length buf > 0 then
        t.consume iv.target (Slot_order.order t.slots buf)
  | None -> ()

(* Hand off every interval that is closed and fully retired, in stream
   order. An open interval's [end_seq] is max_int, so the scan stops
   there. *)
let complete t =
  while
    t.next < Vec.length t.intervals
    && (Vec.get t.intervals t.next).end_seq <= t.retired
  do
    hand_off t
  done

let current_interval t = Vec.get t.intervals (Vec.length t.intervals - 1)

let open_interval t ~seq ~target =
  let cur = current_interval t in
  if cur.target = target then ()
  else begin
    cur.end_seq <- seq;
    let buf =
      if target < 0 then None
      else begin
        let n = try Hashtbl.find t.seg_count target with Not_found -> 0 in
        if n >= t.max_segments then None
        else begin
          Hashtbl.replace t.seg_count target (n + 1);
          Some (Vec.create ())
        end
      end
    in
    Vec.push t.intervals { start_seq = seq; end_seq = max_int; target; buf };
    (* the closed interval's last instruction may have retired already *)
    complete t
  end

let target_of_position t = function
  | Tracker.Unknown -> None
  | Tracker.Known id ->
      if (Call_tree.node t.tree id).Call_tree.long then Some id else None

let on_marker t marker ~seq =
  match Tracker.on_marker t.tracker marker with
  | Tracker.Ignored -> ()
  | Tracker.Entered pos -> (
      match target_of_position t pos with
      | Some id ->
          t.shadow <- true :: t.shadow;
          t.long_stack <- id :: t.long_stack;
          open_interval t ~seq ~target:id
      | None -> t.shadow <- false :: t.shadow)
  | Tracker.Exited _ -> (
      match t.shadow with
      | [] -> () (* malformed stream; ignore *)
      | was_long :: rest ->
          t.shadow <- rest;
          if was_long then begin
            (match t.long_stack with
            | _ :: ls -> t.long_stack <- ls
            | [] -> ());
            let target =
              match t.long_stack with [] -> -1 | top :: _ -> top
            in
            open_interval t ~seq ~target
          end)

(* Binary search for the interval containing [seq] among those not yet
   handed off. Intervals are contiguous and ordered by start_seq. *)
let interval_of_seq t seq =
  let n = Vec.length t.intervals in
  if t.next >= n || seq < (Vec.get t.intervals t.next).start_seq then
    invalid_arg "Collector: event of an interval already handed off";
  let rec go lo hi =
    if lo >= hi then Vec.get t.intervals lo
    else
      let mid = (lo + hi + 1) / 2 in
      if (Vec.get t.intervals mid).start_seq <= seq then go mid hi
      else go lo (mid - 1)
  in
  go t.next (n - 1)

let on_event t (ev : Probe.event) =
  let iv = interval_of_seq t ev.Probe.seq in
  (match iv.buf with
  | Some buf when Vec.length buf < t.max_events -> Vec.push buf ev
  | Some _ | None -> ());
  match ev.Probe.stage with
  | Probe.Retire_s ->
      (* retirement is in order and retire is an instruction's last
         event, so every instruction below [seq + 1] is done *)
      t.retired <- ev.Probe.seq + 1;
      complete t
  | Probe.Fetch_s | Probe.Dispatch_s | Probe.Execute_s | Probe.Mem_s -> ()

let probe t =
  {
    Probe.on_event = on_event t;
    on_marker = (fun m ~seq -> on_marker t m ~seq);
  }

let finish t =
  while t.next < Vec.length t.intervals do
    hand_off t
  done

let segments t =
  finish t;
  let by_node = Hashtbl.create 32 in
  let order = ref [] in
  Vec.iter
    (fun (node_id, events) ->
      match Hashtbl.find_opt by_node node_id with
      | Some segs -> Hashtbl.replace by_node node_id (events :: segs)
      | None ->
          Hashtbl.add by_node node_id [ events ];
          order := node_id :: !order)
    t.retained;
  List.rev_map
    (fun node_id -> (node_id, List.rev (Hashtbl.find by_node node_id)))
    !order

let intervals_seen t = Vec.length t.intervals
