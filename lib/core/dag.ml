module Probe = Mcd_cpu.Probe
module Domain = Mcd_domains.Domain

type t = {
  start : float array;
  dur : float array;
  domain : int array;
  succ_off : int array;
  succ : int array;
  pred_off : int array;
  pred : int array;
  order : int array;
  t_min : float;
  t_max : float;
}

let default_rob_size = 80

(* Calls [edge u v] for every dependence edge among the events of [raw],
   in insertion order: the order each node's adjacency lists keep.
   [slots] holds each instruction's event ids at
   [4 * (seq - min_seq) + Probe.stage_rank stage], -1 where the
   instruction has no such event: fetch, dispatch, work (execute or
   mem) and retire, the intra-instruction chain in order. *)
let iter_edges ~rob_size ~domain ~slots ~min_seq raw edge =
  let edge u v = if u >= 0 && v >= 0 && u <> v then edge u v in
  let insts = Array.length slots / 4 in
  let slot seq s =
    let i = seq - min_seq in
    if i < 0 || i >= insts then -1 else slots.((4 * i) + s)
  in
  (* intra-instruction chains; each event has at most one chain
     predecessor and one chain successor, and every chain edge precedes
     the edges below, so adjacency order does not depend on the order
     instructions are visited in *)
  for i = 0 to insts - 1 do
    let last = ref (-1) in
    for s = 0 to 3 do
      let id = slots.((4 * i) + s) in
      if id >= 0 then begin
        edge !last id;
        last := id
      end
    done
  done;
  (* data and control dependences, serialization of fetch and retire,
     and reorder-buffer occupancy pressure *)
  let dep_edges id (e : Probe.event) =
    let deps = e.Probe.dep_seqs in
    for j = 0 to Array.length deps - 1 do
      edge (slot deps.(j) 2 (* work *)) id
    done
  in
  let last_fetch = ref (-1) and last_retire = ref (-1) in
  (* execution-resource serialization: within a domain, the k-th recent
     operation occupies one of [units] functional units, so an operation
     cannot start before the one [units] back has finished; without
     these edges, co-scheduled operations would each claim the same idle
     gap as private slack *)
  let resource_lag = [| 1; 4; 2; 2 |] (* front, int, fp, mem *) in
  let resource_fifo = Array.map (fun lag -> Array.make lag (-1)) resource_lag in
  let resource_pos = Array.make (Array.length resource_lag) 0 in
  let resource_edge id d =
    let lag = resource_lag.(d) in
    let fifo = resource_fifo.(d) in
    let pos = resource_pos.(d) in
    edge fifo.(pos mod lag) id;
    fifo.(pos mod lag) <- id;
    resource_pos.(d) <- pos + 1
  in
  Array.iteri
    (fun id (e : Probe.event) ->
      match e.Probe.stage with
      | Probe.Fetch_s ->
          edge !last_fetch id;
          last_fetch := id;
          (* control dependence on a mispredicted branch *)
          dep_edges id e;
          (* ROB pressure: instruction i cannot be fetched before
             instruction i - rob_size retires *)
          edge (slot (e.Probe.seq - rob_size) 3 (* retire *)) id
      | Probe.Retire_s ->
          edge !last_retire id;
          last_retire := id
      | Probe.Execute_s | Probe.Mem_s ->
          dep_edges id e;
          resource_edge id domain.(id)
      | Probe.Dispatch_s -> ())
    raw

let build ?(rob_size = default_rob_size) (raw : Probe.event array) =
  let n = Array.length raw in
  let start = Array.make n 0.0 and dur = Array.make n 0.0 in
  let domain = Array.make n 0 in
  let min_seq = ref max_int and max_seq = ref min_int in
  Array.iteri
    (fun id (e : Probe.event) ->
      start.(id) <- float_of_int e.Probe.start;
      dur.(id) <- float_of_int (max 1 e.Probe.duration);
      domain.(id) <- Domain.index e.Probe.domain;
      if e.Probe.seq < !min_seq then min_seq := e.Probe.seq;
      if e.Probe.seq > !max_seq then max_seq := e.Probe.seq)
    raw;
  let min_seq = !min_seq in
  let slots =
    Array.make (if n = 0 then 0 else 4 * (!max_seq - min_seq + 1)) (-1)
  in
  Array.iteri
    (fun id (e : Probe.event) ->
      let s = (4 * (e.Probe.seq - min_seq)) + Probe.stage_rank e.Probe.stage in
      if slots.(s) >= 0 then
        invalid_arg
          (Printf.sprintf
             "Dag.build: events %d and %d share seq %d and stage rank %d"
             slots.(s) id e.Probe.seq
             (Probe.stage_rank e.Probe.stage));
      slots.(s) <- id)
    raw;
  let iter_edges = iter_edges ~rob_size ~domain ~slots ~min_seq raw in
  (* CSR from two identical edge walks: the first counts each node's
     degrees, the second files every edge at its node's cursor, so each
     list keeps insertion order *)
  let succ_off = Array.make (n + 1) 0 and pred_off = Array.make (n + 1) 0 in
  iter_edges (fun u v ->
      succ_off.(u + 1) <- succ_off.(u + 1) + 1;
      pred_off.(v + 1) <- pred_off.(v + 1) + 1);
  for i = 1 to n do
    succ_off.(i) <- succ_off.(i) + succ_off.(i - 1);
    pred_off.(i) <- pred_off.(i) + pred_off.(i - 1)
  done;
  let succ = Array.make succ_off.(n) 0 and pred = Array.make pred_off.(n) 0 in
  let succ_next = Array.sub succ_off 0 n in
  let pred_next = Array.sub pred_off 0 n in
  iter_edges (fun u v ->
      succ.(succ_next.(u)) <- v;
      succ_next.(u) <- succ_next.(u) + 1;
      pred.(pred_next.(v)) <- u;
      pred_next.(v) <- pred_next.(v) + 1);
  (* Starts are float_of_int of non-negative ints and durations are
     >= 1, so no operand below is NaN or -0.0: the plain comparisons
     pick the same values Float.min/Float.max would, and (start, id)
     keys order exactly as polymorphic compare on the pair does. *)
  let t_min = ref Float.infinity and t_max = ref Float.neg_infinity in
  for id = 0 to n - 1 do
    if start.(id) < !t_min then t_min := start.(id);
    let e_end = start.(id) +. dur.(id) in
    if e_end > !t_max then t_max := e_end
  done;
  let order = Array.init n (fun id -> id) in
  Array.stable_sort
    (fun a b ->
      let sa = start.(a) and sb = start.(b) in
      if sa < sb then -1 else if sa > sb then 1 else Int.compare a b)
    order;
  {
    start;
    dur;
    domain;
    succ_off;
    succ;
    pred_off;
    pred;
    order;
    t_min = (if n = 0 then 0.0 else !t_min);
    t_max = (if n = 0 then 0.0 else !t_max);
  }

let size t = Array.length t.start
let edge_count t = Array.length t.succ

let slack t id =
  let e_end = t.start.(id) +. t.dur.(id) in
  if t.succ_off.(id) = t.succ_off.(id + 1) then
    Float.max 0.0 (t.t_max -. e_end)
  else begin
    let acc = ref Float.infinity in
    for j = t.succ_off.(id) to t.succ_off.(id + 1) - 1 do
      acc := Float.min !acc (Float.max 0.0 (t.start.(t.succ.(j)) -. e_end))
    done;
    !acc
  end

(* The first portion of each edge's observed gap is latch/wakeup/
   synchronization time that stretches with the consumer domain's
   period; anything beyond that is a wait on other resources, carried as
   a frequency-independent constant. The cap is roughly one wakeup cycle
   plus one synchronization capture at full speed. *)
let scaled_gap_cap_ps = 1800.0

(* [Float.min g scaled_gap_cap_ps] for a non-negative gap [g]: a
   difference of integral floats, so never NaN or -0.0 *)
let[@inline] scaled_part g =
  if g < scaled_gap_cap_ps then g else scaled_gap_cap_ps

(* Longest paths under [k] probes at once; [slow.(p * Domain.count + d)]
   stretches domain index [d] under probe [p]. The DP models event start
   times: a consumer starts no earlier than each producer's start plus
   the producer's (stretched) duration plus the hop gap, where the first
   [scaled_gap_cap_ps] of a non-negative gap scales with the consumer's
   domain (latch/wakeup/synchronization) and the remainder is a
   frequency-independent wait; a negative gap (co-scheduled events, e.g.
   a 4-wide fetch group) scales with the producer's domain so that
   co-issue stays co-issue at any frequency. Every event is also anchored
   at its recorded start as a frequency-independent lower bound (waits
   the DAG does not explain). At full speed the computed makespan
   therefore equals the recorded one exactly.

   One walk of [order] serves every probe: the gap of a predecessor edge
   is probe-independent, and each probe's (start, best predecessor)
   column [v * k + p] sees the same operations in the same order as a
   walk of its own would.

   Returns, per probe, the composition of the winning path: per-domain
   scaling time in the first {!Domain.count} entries (possibly negative
   contributions from overlaps), frequency-independent time in the
   last. *)
let signatures t (slow : float array) =
  let nd = Domain.count in
  let k = Array.length slow / nd in
  let n = size t in
  if n = 0 then Array.init k (fun _ -> Array.make (nd + 1) 0.0)
  else begin
    let start = t.start and dur = t.dur and dom = t.domain in
    let pred_off = t.pred_off and pred = t.pred in
    let s_time = Array.make (n * k) 0.0 in
    let best_pred = Array.make (n * k) (-1) in
    for i = 0 to n - 1 do
      let v = t.order.(i) in
      let vk = v * k in
      let anchor = start.(v) -. t.t_min in
      for p = 0 to k - 1 do
        s_time.(vk + p) <- anchor
      done;
      let sv = start.(v) and dv = dom.(v) in
      for j = pred_off.(v) to pred_off.(v + 1) - 1 do
        let u = pred.(j) in
        let uk = u * k and du = dom.(u) and dur_u = dur.(u) in
        let g = sv -. (start.(u) +. dur_u) in
        if g >= 0.0 then begin
          let scaled = scaled_part g in
          let rest = g -. scaled in
          for p = 0 to k - 1 do
            let cand =
              s_time.(uk + p)
              +. (dur_u *. slow.((p * nd) + du))
              +. ((scaled *. slow.((p * nd) + dv)) +. rest)
            in
            if cand > s_time.(vk + p) then begin
              s_time.(vk + p) <- cand;
              best_pred.(vk + p) <- u
            end
          done
        end
        else
          for p = 0 to k - 1 do
            let su = slow.((p * nd) + du) in
            let cand = s_time.(uk + p) +. (dur_u *. su) +. (g *. su) in
            if cand > s_time.(vk + p) then begin
              s_time.(vk + p) <- cand;
              best_pred.(vk + p) <- u
            end
          done
      done
    done;
    Array.init k (fun p ->
        (* sink: the first event with the latest stretched end *)
        let sink = ref 0 and sink_end = ref 0.0 in
        for id = 0 to n - 1 do
          let e_end =
            s_time.((id * k) + p) +. (dur.(id) *. slow.((p * nd) + dom.(id)))
          in
          if id = 0 || e_end > !sink_end then begin
            sink := id;
            sink_end := e_end
          end
        done;
        let signature = Array.make (nd + 1) 0.0 in
        let add d x = signature.(d) <- signature.(d) +. x in
        (* the sink's own duration, then each hop back to the source *)
        add dom.(!sink) dur.(!sink);
        let rec back v =
          let u = best_pred.((v * k) + p) in
          if u < 0 then add nd (start.(v) -. t.t_min)
          else begin
            let g = start.(v) -. (start.(u) +. dur.(u)) in
            if g >= 0.0 then begin
              let scaled = scaled_part g in
              add dom.(v) scaled;
              add nd (g -. scaled)
            end
            else add dom.(u) g;
            add dom.(u) dur.(u);
            back u
          end
        in
        back !sink;
        signature)
  end

let longest_path_signature t ~slow =
  let probe = Array.init Domain.count (fun d -> slow (Domain.of_index d)) in
  (signatures t probe).(0)

(* Full speed, everything 4x slower, then each domain 4x slower alone. *)
let probes =
  Array.concat
    (Array.make Domain.count 1.0
    :: Array.make Domain.count 4.0
    :: List.init Domain.count (fun d ->
           Array.init Domain.count (fun i -> if i = d then 4.0 else 1.0)))

let path_signatures t =
  let signatures = signatures t probes in
  (* probe 0 is the full-speed path *)
  let base_ps = Array.fold_left ( +. ) 0.0 signatures.(0) in
  { Path_model.base_ps; signatures = Array.to_list signatures }

let validate t =
  let tolerance = 2000.0 (* ps: sync + jitter slop *) in
  let n = size t in
  if Array.length t.succ <> Array.length t.pred then
    invalid_arg "Dag.validate: successor and predecessor edge counts differ";
  for id = 0 to n - 1 do
    if t.dur.(id) <= 0.0 then invalid_arg "Dag.validate: non-positive duration";
    for j = t.succ_off.(id) to t.succ_off.(id + 1) - 1 do
      let sid = t.succ.(j) in
      if t.start.(sid) +. tolerance < t.start.(id) then
        invalid_arg
          (Printf.sprintf
             "Dag.validate: edge %d->%d goes backward in time (%.0f -> %.0f)"
             id sid t.start.(id) t.start.(sid))
    done
  done
