(* Tests for the energy model and run metrics. *)

module Energy = Mcd_power.Energy
module Metrics = Mcd_power.Metrics
module Domain = Mcd_domains.Domain
module Dvfs = Mcd_domains.Dvfs
module Freq = Mcd_domains.Freq
module Time = Mcd_util.Time

let check_float = Alcotest.(check (float 1e-9))

let all_activities =
  [
    Energy.Fetch; Energy.Decode_rename; Energy.Rob_write; Energy.Retire;
    Energy.Iq_write_int; Energy.Iq_write_fp; Energy.Issue_int;
    Energy.Issue_fp; Energy.Int_alu_op; Energy.Int_mult_op; Energy.Fp_alu_op;
    Energy.Fp_mult_op; Energy.Regfile_int; Energy.Regfile_fp;
    Energy.L1i_access; Energy.L1d_access; Energy.L2_access; Energy.Lsq_op;
    Energy.Main_memory_access;
  ]

let test_base_costs_positive () =
  List.iter
    (fun a ->
      if Energy.base_pj a <= 0.0 then Alcotest.fail "non-positive base cost")
    all_activities

let test_domains_assigned () =
  Alcotest.(check bool) "memory access is external" true
    (Energy.domain_of Energy.Main_memory_access = None);
  Alcotest.(check bool) "fetch is front-end" true
    (Energy.domain_of Energy.Fetch = Some Domain.Front_end);
  Alcotest.(check bool) "fp op is fp domain" true
    (Energy.domain_of Energy.Fp_mult_op = Some Domain.Floating);
  Alcotest.(check bool) "l2 is memory domain" true
    (Energy.domain_of Energy.L2_access = Some Domain.Memory)

let test_charge_full_speed () =
  let acc = Energy.Accum.create () in
  let dvfs = Dvfs.create () in
  Energy.Accum.charge acc dvfs ~now:Time.zero Energy.Int_alu_op;
  check_float "charged at base" (Energy.base_pj Energy.Int_alu_op)
    (Energy.Accum.domain_pj acc Domain.Integer);
  check_float "total" (Energy.base_pj Energy.Int_alu_op)
    (Energy.Accum.total_pj acc)

let test_charge_scaled () =
  let acc = Energy.Accum.create () in
  let dvfs = Dvfs.create () in
  Dvfs.force dvfs Domain.Integer ~mhz:250;
  Energy.Accum.charge acc dvfs ~now:Time.zero Energy.Int_alu_op;
  let expected =
    Energy.base_pj Energy.Int_alu_op *. Freq.energy_scale 250.0
  in
  check_float "scaled by V^2" expected
    (Energy.Accum.domain_pj acc Domain.Integer)

let test_external_never_scaled () =
  let acc = Energy.Accum.create () in
  let dvfs = Dvfs.create () in
  Dvfs.force dvfs Domain.Memory ~mhz:250;
  Energy.Accum.charge acc dvfs ~now:Time.zero Energy.Main_memory_access;
  check_float "external at base" (Energy.base_pj Energy.Main_memory_access)
    (Energy.Accum.external_pj acc)

let test_clock_tick_scales_down () =
  let full = Energy.Accum.create () in
  let slow = Energy.Accum.create () in
  let dvfs_full = Dvfs.create () in
  let dvfs_slow = Dvfs.create () in
  Dvfs.force dvfs_slow Domain.Integer ~mhz:250;
  Energy.Accum.charge_clock_tick full dvfs_full ~now:Time.zero Domain.Integer;
  Energy.Accum.charge_clock_tick slow dvfs_slow ~now:Time.zero Domain.Integer;
  (* at 250 MHz a tick covers 4x the wall time, yet still costs less than
     a full-speed tick's clock energy would over that time *)
  Alcotest.(check bool) "cheaper ticks" true
    (Energy.Accum.domain_pj slow Domain.Integer
    < 4.0 *. Energy.Accum.domain_pj full Domain.Integer);
  Alcotest.(check bool) "positive" true
    (Energy.Accum.domain_pj slow Domain.Integer > 0.0)

let test_charge_raw () =
  let acc = Energy.Accum.create () in
  Energy.Accum.charge_raw acc (Some Domain.Floating) ~pj:2.5;
  Energy.Accum.charge_raw acc None ~pj:1.5;
  check_float "domain raw" 2.5 (Energy.Accum.domain_pj acc Domain.Floating);
  check_float "external raw" 1.5 (Energy.Accum.external_pj acc);
  check_float "total" 4.0 (Energy.Accum.total_pj acc)

(* --- Metrics --------------------------------------------------------- *)

let mk_run ~runtime_ps ~energy_pj ~instructions ~cycles =
  {
    Metrics.runtime_ps;
    energy_pj;
    per_domain_pj = Array.make 5 0.0;
    instructions;
    cycles_front = cycles;
    sync_crossings = 0;
    sync_penalties = 0;
    reconfigurations = 0;
    instr_points = 0;
    instr_overhead_ps = 0;
  }

let test_metrics_ipc () =
  let r = mk_run ~runtime_ps:1000 ~energy_pj:1.0 ~instructions:500 ~cycles:1000 in
  check_float "ipc" 0.5 (Metrics.ipc r)

let test_metrics_comparisons () =
  let base =
    mk_run ~runtime_ps:100_000 ~energy_pj:1000.0 ~instructions:1 ~cycles:1
  in
  let run =
    mk_run ~runtime_ps:110_000 ~energy_pj:800.0 ~instructions:1 ~cycles:1
  in
  check_float "degradation" 10.0 (Metrics.perf_degradation_pct ~baseline:base run);
  check_float "savings" 20.0 (Metrics.energy_savings_pct ~baseline:base run);
  (* ED: base = 1000 * 1e-7; run = 800 * 1.1e-7 -> improvement 12% *)
  check_float "ed improvement" 12.0 (Metrics.ed_improvement_pct ~baseline:base run)

let test_metrics_energy_delay () =
  let r = mk_run ~runtime_ps:2_000_000 ~energy_pj:500.0 ~instructions:1 ~cycles:1 in
  check_float "ed product" (500.0 *. 2e-6) (Metrics.energy_delay r)

(* While a domain rests on a step, charges read per-step tables. Each
   must add what the slow path's expressions give, bit for bit and in
   its order: a tick adds the clock-tree term, then the leakage term. *)
let test_settled_tables_match_slow_path () =
  let start = 0.1 in
  let fresh d =
    let acc = Energy.Accum.create () in
    Energy.Accum.charge_raw acc (Some d) ~pj:start;
    acc
  in
  List.iter
    (fun d ->
      Array.iter
        (fun mhz ->
          let dvfs = Dvfs.create () in
          Dvfs.force dvfs d ~mhz;
          let f = float_of_int mhz in
          let label what = Printf.sprintf "%s %s at %d" (Domain.name d) what mhz in
          let acc = fresh d in
          Energy.Accum.charge_clock_tick acc dvfs ~now:Time.zero d;
          let clock = Energy.clock_tree_pj_per_cycle d *. Freq.energy_scale f in
          let leak =
            Energy.leakage_pj_per_ns d *. (1_000.0 /. f)
            *. (Freq.voltage_f f /. Freq.vmax)
          in
          Alcotest.(check (float 0.0)) (label "tick") (start +. clock +. leak)
            (Energy.Accum.domain_pj acc d);
          List.iter
            (fun a ->
              if Energy.domain_of a = Some d then begin
                let acc = fresh d in
                Energy.Accum.charge acc dvfs ~now:Time.zero a;
                Alcotest.(check (float 0.0)) (label "charge")
                  (start +. (Energy.base_pj a *. Freq.energy_scale f))
                  (Energy.Accum.domain_pj acc d)
              end)
            all_activities)
        Freq.steps)
    Domain.all

let suite =
  [
    ("base costs positive", `Quick, test_base_costs_positive);
    ("domains assigned", `Quick, test_domains_assigned);
    ("charge full speed", `Quick, test_charge_full_speed);
    ("charge scaled", `Quick, test_charge_scaled);
    ("external never scaled", `Quick, test_external_never_scaled);
    ("clock tick scales down", `Quick, test_clock_tick_scales_down);
    ("charge raw", `Quick, test_charge_raw);
    ("settled tables match the slow path", `Quick,
     test_settled_tables_match_slow_path);
    ("metrics ipc", `Quick, test_metrics_ipc);
    ("metrics comparisons", `Quick, test_metrics_comparisons);
    ("metrics energy-delay", `Quick, test_metrics_energy_delay);
  ]
