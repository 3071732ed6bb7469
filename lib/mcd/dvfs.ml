module Time = Mcd_util.Time

type dstate = {
  mutable current : float; (* MHz *)
  mutable target : float;
  mutable settled : int; (* [target]'s step while [current] is on it; else -1 *)
  mutable last : Time.t;
  mutable stuck : bool; (* ignores set_target entirely *)
  mutable frozen : bool; (* accepts targets but the ramp never moves *)
}

type t = { domains : dstate array }

type fault = Stuck_at of Domain.t * int | Frozen_slew of Domain.t

let slew_ns_per_mhz = 73.3

let create () =
  {
    domains =
      Array.init Domain.count (fun _ ->
          {
            current = float_of_int Freq.fmax_mhz;
            target = float_of_int Freq.fmax_mhz;
            settled = Freq.index_of Freq.fmax_mhz;
            last = Time.zero;
            stuck = false;
            frozen = false;
          });
  }

(* Every write to [current] or [target] is followed by this. *)
let resettle ds =
  ds.settled <-
    (if ds.current = ds.target then Freq.index_of (int_of_float ds.target)
     else -1)

(* Queries at times earlier than the last observation (e.g. projecting
   the arrival of a result produced in the past) answer with the current
   operating point rather than rewinding the ramp. *)
let advance ds ~now =
  if now > ds.last && ds.current <> ds.target && not ds.frozen then begin
    let elapsed_ns = Time.to_ns (now - ds.last) in
    let delta_mhz = elapsed_ns /. slew_ns_per_mhz in
    (* Snap exactly onto the target the moment the ramp reaches (or
       overshoots) it, rather than relying on min/max clamping to make
       the float equality in [in_transition] come out true. The slew
       arithmetic must terminate for any interleaving of queries. *)
    if Float.abs (ds.target -. ds.current) <= delta_mhz then
      ds.current <- ds.target
    else if ds.current < ds.target then
      ds.current <- ds.current +. delta_mhz
    else ds.current <- ds.current -. delta_mhz;
    resettle ds
  end;
  if now > ds.last then ds.last <- now

let set_target ?on_snap ?sink t domain ~now ~mhz =
  let ds = t.domains.(Domain.index domain) in
  advance ds ~now;
  let snapped = Freq.clamp mhz in
  if snapped <> mhz then
    Option.iter (fun f -> f ~requested:mhz ~snapped) on_snap;
  if not ds.stuck then begin
    let before = int_of_float ds.target in
    ds.target <- float_of_int snapped;
    resettle ds;
    if snapped <> before then
      match sink with
      | None -> ()
      | Some s ->
          Mcd_obs.Sink.dvfs_retarget s ~t_ps:now ~domain:(Domain.index domain)
            ~before ~after:snapped
  end

let force t domain ~mhz =
  let ds = t.domains.(Domain.index domain) in
  let f = float_of_int (Freq.clamp mhz) in
  ds.current <- f;
  ds.target <- f;
  resettle ds

let inject t = function
  | Stuck_at (domain, mhz) ->
      let ds = t.domains.(Domain.index domain) in
      let f = float_of_int (Freq.clamp mhz) in
      ds.current <- f;
      ds.target <- f;
      resettle ds;
      ds.stuck <- true
  | Frozen_slew domain -> t.domains.(Domain.index domain).frozen <- true

let target_mhz t domain =
  int_of_float t.domains.(Domain.index domain).target

let current_mhz t domain ~now =
  let ds = t.domains.(Domain.index domain) in
  advance ds ~now;
  ds.current

(* The advance happens on a copy: the ramp's own float integration must
   not gain a step at the instant of the peek. *)
let peek_mhz t domain ~now =
  let ds = t.domains.(Domain.index domain) in
  let copy = { ds with current = ds.current } in
  advance copy ~now;
  copy.current

(* While the ramp rests on its target, [advance] only moves [last]: do
   exactly that and answer the target's step, so per-step tables can
   stand in for the float the slow path would compute. [last] must
   still move, because a later retarget starts its ramp from it. *)
let settled_step t domain ~now =
  let ds = t.domains.(Domain.index domain) in
  let k = ds.settled in
  if k >= 0 && now > ds.last then ds.last <- now;
  k

let voltage t domain ~now = Freq.voltage_f (current_mhz t domain ~now)
let energy_scale t domain ~now = Freq.energy_scale (current_mhz t domain ~now)

let in_transition t domain ~now =
  let ds = t.domains.(Domain.index domain) in
  advance ds ~now;
  ds.current <> ds.target
