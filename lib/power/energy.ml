module Domain = Mcd_domains.Domain
module Dvfs = Mcd_domains.Dvfs
module Freq = Mcd_domains.Freq

type activity =
  | Fetch
  | Decode_rename
  | Rob_write
  | Retire
  | Iq_write_int
  | Iq_write_fp
  | Issue_int
  | Issue_fp
  | Int_alu_op
  | Int_mult_op
  | Fp_alu_op
  | Fp_mult_op
  | Regfile_int
  | Regfile_fp
  | L1i_access
  | L1d_access
  | L2_access
  | Lsq_op
  | Main_memory_access

let base_pj = function
  | Fetch -> 0.35
  | Decode_rename -> 0.50
  | Rob_write -> 0.30
  | Retire -> 0.25
  | Iq_write_int -> 0.20
  | Iq_write_fp -> 0.20
  | Issue_int -> 0.25
  | Issue_fp -> 0.25
  | Int_alu_op -> 0.45
  | Int_mult_op -> 1.30
  | Fp_alu_op -> 0.95
  | Fp_mult_op -> 1.90
  | Regfile_int -> 0.18
  | Regfile_fp -> 0.24
  | L1i_access -> 0.60
  | L1d_access -> 0.80
  | L2_access -> 2.40
  | Lsq_op -> 0.35
  | Main_memory_access -> 12.0

let domain_of = function
  | Fetch | Decode_rename | Rob_write | Retire | L1i_access ->
      Some Domain.Front_end
  | Iq_write_int | Issue_int | Int_alu_op | Int_mult_op | Regfile_int ->
      Some Domain.Integer
  | Iq_write_fp | Issue_fp | Fp_alu_op | Fp_mult_op | Regfile_fp ->
      Some Domain.Floating
  | L1d_access | L2_access | Lsq_op -> Some Domain.Memory
  | Main_memory_access -> None

let clock_tree_pj_per_cycle = function
  | Domain.Front_end -> 0.55
  | Domain.Integer -> 0.45
  | Domain.Floating -> 0.35
  | Domain.Memory -> 0.50

let leakage_pj_per_ns = function
  | Domain.Front_end -> 0.06
  | Domain.Integer -> 0.05
  | Domain.Floating -> 0.04
  | Domain.Memory -> 0.05

(* One clock tick's clock-tree and leakage energy at operating point
   [fmhz]. A tick adds the two to its accumulator one at a time,
   [(pj +. clock) +. leak]: their pre-summed total would round
   differently. *)
let tick_clock_pj domain fmhz =
  clock_tree_pj_per_cycle domain *. Freq.energy_scale fmhz

let tick_leak_pj domain fmhz =
  let period_ns = 1_000.0 /. fmhz in
  let v_ratio = Freq.voltage_f fmhz /. Freq.vmax in
  leakage_pj_per_ns domain *. period_ns *. v_ratio

(* The same values at each legal step, read while a domain's ramp rests
   on one ([Dvfs.settled_step]); indexed [Domain.index d * Freq.num_steps
   + step]. *)
let step_scale =
  Array.map (fun mhz -> Freq.energy_scale (float_of_int mhz)) Freq.steps

let per_step f =
  Array.init (Domain.count * Freq.num_steps) (fun i ->
      f
        (Domain.of_index (i / Freq.num_steps))
        (float_of_int Freq.steps.(i mod Freq.num_steps)))

let step_clock_pj = per_step tick_clock_pj
let step_leak_pj = per_step tick_leak_pj

module Accum = struct
  (* index 0..3: domains; index 4: external *)
  type t = { pj : float array }

  let external_index = Domain.count

  let create () = { pj = Array.make (Domain.count + 1) 0.0 }

  let charge t dvfs ~now activity =
    let base = base_pj activity in
    match domain_of activity with
    | None -> t.pj.(external_index) <- t.pj.(external_index) +. base
    | Some d ->
        let i = Domain.index d in
        let k = Dvfs.settled_step dvfs d ~now in
        if k >= 0 then t.pj.(i) <- t.pj.(i) +. (base *. step_scale.(k))
        else t.pj.(i) <- t.pj.(i) +. (base *. Dvfs.energy_scale dvfs d ~now)

  let charge_clock_tick t dvfs ~now domain =
    let i = Domain.index domain in
    let k = Dvfs.settled_step dvfs domain ~now in
    if k >= 0 then begin
      let j = (i * Freq.num_steps) + k in
      t.pj.(i) <- t.pj.(i) +. step_clock_pj.(j) +. step_leak_pj.(j)
    end
    else begin
      let fmhz = Dvfs.current_mhz dvfs domain ~now in
      t.pj.(i) <-
        t.pj.(i) +. tick_clock_pj domain fmhz +. tick_leak_pj domain fmhz
    end

  let charge_raw t domain ~pj =
    assert (pj >= 0.0);
    match domain with
    | None -> t.pj.(external_index) <- t.pj.(external_index) +. pj
    | Some d ->
        let i = Domain.index d in
        t.pj.(i) <- t.pj.(i) +. pj

  let domain_pj t d = t.pj.(Domain.index d)
  let external_pj t = t.pj.(external_index)
  let total_pj t = Array.fold_left ( +. ) 0.0 t.pj
  let reset t = Array.fill t.pj 0 (Array.length t.pj) 0.0
end
