module Time = Mcd_util.Time
module Rng = Mcd_util.Rng

type t = {
  mutable next : Time.t;
  mutable count : int;
  jitter_sigma : float;
  jitter_bound : float;
  rng : Rng.t;
  dvfs : Dvfs.t;
  domain : Domain.t;
}

let default_jitter_bound = 110.0

let create ?(jitter_sigma_ps = default_jitter_bound /. 3.0) ~rng ~dvfs ~domain
    () =
  {
    next = Time.zero;
    count = 0;
    jitter_sigma = jitter_sigma_ps;
    jitter_bound = jitter_sigma_ps *. 3.0;
    rng;
    dvfs;
    domain;
  }

let next_edge t = t.next
let cycles t = t.count

(* The period of each legal step, as [Freq.period_ps] computes it from
   the operating point a settled ramp rests on. *)
let step_period_ps =
  Array.map (fun mhz -> Freq.period_ps (float_of_int mhz)) Freq.steps

let period_ps t ~now =
  let k = Dvfs.settled_step t.dvfs t.domain ~now in
  if k >= 0 then step_period_ps.(k)
  else Freq.period_ps (Dvfs.current_mhz t.dvfs t.domain ~now)

let advance t =
  let now = t.next in
  let period = period_ps t ~now in
  let jitter =
    if t.jitter_sigma <= 0.0 then 0
    else
      let j = Rng.normal t.rng ~mean:0.0 ~sigma:t.jitter_sigma in
      (* [Float.max (-bound) (Float.min bound j)] for a finite draw,
         written out so that no float crosses a call *)
      let j =
        if j > t.jitter_bound then t.jitter_bound
        else if j < -.t.jitter_bound then -.t.jitter_bound
        else j
      in
      int_of_float j
  in
  let step = max 1 (period + jitter) in
  t.next <- now + step;
  t.count <- t.count + 1

let project_edge t ~at_or_after =
  let period = max 1 (period_ps t ~now:t.next) in
  if at_or_after >= t.next then
    let delta = at_or_after - t.next in
    let k = (delta + period - 1) / period in
    t.next + (k * period)
  else
    (* Extrapolate the edge grid backward: results that completed in the
       past were captured by an edge that already occurred. *)
    let delta = t.next - at_or_after in
    let k = delta / period in
    t.next - (k * period)
