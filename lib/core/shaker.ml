module Histogram = Mcd_util.Histogram
module Domain = Mcd_domains.Domain
module Freq = Mcd_domains.Freq

type result = {
  histograms : Histogram.t array;
  passes : int;
  stretched_events : int;
  total_events : int;
}

let fmax = float_of_int Freq.fmax_mhz

(* Power factor of an event running at frequency [f] (MHz): the domain's
   relative power, scaled by the operating point (V^2 for dynamic energy
   per cycle, x f/fmax for cycle rate). *)
let power_at ~p0 ~f = p0 *. Freq.energy_scale f *. (f /. fmax)

let freq_of ~orig ~dur = fmax *. orig /. dur
let dur_at ~orig ~f = orig *. fmax /. f

(* The stretch threshold's decay per backward+forward pass pair. *)
let stretch_decay = 0.85

(* The min/max folds below compare relative powers (positive
   constants), starts, ends and their differences. Starts begin as
   float_of_int of non-negative ints, durations stay >= 1 and x -. x is
   +0, so these values are finite and never -0.0: a plain [<]/[>]
   selects the value Float.min/Float.max would, and
   [if x > 0.0 then x else 0.0] is exactly [Float.max 0.0 x]. *)
let run ?(max_passes = 24) (dag : Dag.t) =
  let n = Dag.size dag in
  let order = dag.Dag.order and dom = dag.Dag.domain in
  let succ_off = dag.Dag.succ_off and succ = dag.Dag.succ in
  let pred_off = dag.Dag.pred_off and pred = dag.Dag.pred in
  let t_min = dag.Dag.t_min and t_max = dag.Dag.t_max in
  (* the shaker works on a copy of the schedule *)
  let start = Array.copy dag.Dag.start in
  let dur = Array.copy dag.Dag.dur in
  let orig = dag.Dag.dur in
  let p0 =
    Array.init Domain.count (fun d -> Domain.relative_power (Domain.of_index d))
  in
  let nsteps = Freq.num_steps in
  let grid = Array.init nsteps (fun i -> float_of_int (Freq.of_index i)) in
  (* power of each grid step, per domain, at [d * nsteps + step] *)
  let step_power =
    Array.init (Domain.count * nsteps) (fun i ->
        power_at ~p0:p0.(i / nsteps) ~f:grid.(i mod nsteps))
  in
  (* each event's power at its current frequency, refreshed whenever its
     duration changes *)
  let power =
    Array.init n (fun id ->
        power_at ~p0:p0.(dom.(id)) ~f:(freq_of ~orig:orig.(id) ~dur:dur.(id)))
  in
  (* the grid step each event last moved to (full speed at first); its
     current frequency is within rounding of that step's *)
  let level = Array.make n (nsteps - 1) in
  let stretched = ref false in
  let stretch_threshold =
    let m = ref 0.0 in
    for id = 0 to n - 1 do
      if p0.(dom.(id)) > !m then m := p0.(dom.(id))
    done;
    ref (0.95 *. !m)
  in
  (* Scale [id] down to the lowest step frequency reachable with [slack]
     ps of room: step down while power still exceeds the threshold and
     the extra duration fits in the slack. Inlined at both call sites so
     [slack] is never boxed. *)
  let[@inline] stretch id slack =
    let threshold = !stretch_threshold in
    let cur_f = freq_of ~orig:orig.(id) ~dur:dur.(id) in
    (* the chosen step, or -1 while still at [cur_f]; every step above
       [level] lies above [cur_f], so a scan from the top would only pass
       over them *)
    let best = ref (-1) and idx = ref level.(id) in
    while !idx >= 0 do
      let f = grid.(!idx) in
      if f >= cur_f then decr idx
      else begin
        let best_power =
          if !best < 0 then power.(id)
          else step_power.((dom.(id) * nsteps) + !best)
        in
        if best_power <= threshold then idx := -1
        else begin
          let extra = dur_at ~orig:orig.(id) ~f -. dur.(id) in
          if extra <= slack +. 1e-9 then begin
            best := !idx;
            decr idx
          end
          else idx := -1
        end
      end
    done;
    if !best >= 0 && grid.(!best) < cur_f -. 1e-9 then begin
      dur.(id) <- dur_at ~orig:orig.(id) ~f:grid.(!best);
      level.(id) <- !best;
      (* the new frequency usually rounds back to the step exactly, and
         then its power is the table's *)
      let f = freq_of ~orig:orig.(id) ~dur:dur.(id) in
      power.(id) <-
        (if f = grid.(!best) then step_power.((dom.(id) * nsteps) + !best)
         else power_at ~p0:p0.(dom.(id)) ~f);
      stretched := true
    end
  in
  let passes_done = ref 0 in
  let quiet_pairs = ref 0 in
  let pass = ref 0 in
  while !pass < max_passes && !quiet_pairs < 2 do
    incr pass;
    stretched := false;
    (* backward pass: consume outgoing slack, push remaining slack to
       incoming edges by moving the event later *)
    for i = n - 1 downto 0 do
      let id = order.(i) in
      let e_end = start.(id) +. dur.(id) in
      let slack = ref Float.infinity in
      let min_succ_start = ref Float.infinity in
      if succ_off.(id) = succ_off.(id + 1) then begin
        slack := t_max -. e_end;
        min_succ_start := t_max
      end
      else
        for j = succ_off.(id) to succ_off.(id + 1) - 1 do
          let s = start.(succ.(j)) in
          let gap = s -. e_end in
          if gap < !slack then slack := gap;
          if s < !min_succ_start then min_succ_start := s
        done;
      let slack = if !slack > 0.0 then !slack else 0.0 in
      if slack > 0.0 && power.(id) > !stretch_threshold then stretch id slack;
      (* move as late as dependences allow *)
      let latest = !min_succ_start -. dur.(id) in
      if latest > start.(id) then start.(id) <- latest
    done;
    (* forward pass: consume incoming slack, push remaining slack to
       outgoing edges by moving the event earlier *)
    for i = 0 to n - 1 do
      let id = order.(i) in
      let slack = ref Float.infinity in
      let max_pred_end = ref Float.neg_infinity in
      if pred_off.(id) = pred_off.(id + 1) then begin
        slack := start.(id) -. t_min;
        max_pred_end := t_min
      end
      else
        for j = pred_off.(id) to pred_off.(id + 1) - 1 do
          let pid = pred.(j) in
          let p_end = start.(pid) +. dur.(pid) in
          let gap = start.(id) -. p_end in
          if gap < !slack then slack := gap;
          if p_end > !max_pred_end then max_pred_end := p_end
        done;
      let slack = if !slack > 0.0 then !slack else 0.0 in
      if slack > 0.0 && power.(id) > !stretch_threshold then begin
        let before = dur.(id) in
        stretch id slack;
        (* growing into incoming slack means starting earlier *)
        let grown = dur.(id) -. before in
        if grown > 0.0 then start.(id) <- start.(id) -. grown
      end;
      if !max_pred_end < start.(id) then start.(id) <- !max_pred_end
    done;
    passes_done := !pass;
    stretch_threshold := !stretch_threshold *. stretch_decay;
    if !stretched then quiet_pairs := 0 else incr quiet_pairs
  done;
  let histograms =
    Array.init Domain.count (fun _ -> Histogram.create ~bins:nsteps)
  in
  let stretched_events = ref 0 in
  for id = 0 to n - 1 do
    let f = freq_of ~orig:orig.(id) ~dur:dur.(id) in
    (* snap down to the step actually sustainable for this event *)
    let step = ref (nsteps - 1) in
    while !step > 0 && grid.(!step) > f +. 1e-6 do
      decr step
    done;
    if !step < nsteps - 1 then incr stretched_events;
    Histogram.add histograms.(dom.(id)) ~bin:!step
      ~weight:(orig.(id) /. 1000.0)
  done;
  {
    histograms;
    passes = !passes_done;
    stretched_events = !stretched_events;
    total_events = n;
  }

let frequencies_of_durations ~orig ~stretched =
  Array.mapi
    (fun i o ->
      let f = fmax *. o /. stretched.(i) in
      let rec go idx =
        if idx <= 0 then Freq.of_index 0
        else if float_of_int (Freq.of_index idx) <= f +. 1e-6 then
          Freq.of_index idx
        else go (idx - 1)
      in
      go (Freq.num_steps - 1))
    orig
