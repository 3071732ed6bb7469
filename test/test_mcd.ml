(* Tests for the MCD clocking layer: frequencies, DVFS slew, clocks,
   synchronization, and the reconfiguration register. *)

module Domain = Mcd_domains.Domain
module Freq = Mcd_domains.Freq
module Dvfs = Mcd_domains.Dvfs
module Clock = Mcd_domains.Clock
module Sync = Mcd_domains.Sync
module Reconfig = Mcd_domains.Reconfig
module Time = Mcd_util.Time
module Rng = Mcd_util.Rng

let qcheck ?(seed = 0x3cd) t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t

let check_float = Alcotest.(check (float 1e-6))

(* --- Domain --------------------------------------------------------- *)

let test_domain_indexing () =
  List.iter
    (fun d ->
      Alcotest.(check bool) "roundtrip" true (Domain.of_index (Domain.index d) = d))
    Domain.all;
  Alcotest.(check int) "count" 4 (List.length Domain.all);
  Alcotest.check_raises "bad index" (Invalid_argument "Domain.of_index: 4")
    (fun () -> ignore (Domain.of_index 4))

let test_domain_power_weights () =
  let total = List.fold_left (fun a d -> a +. Domain.relative_power d) 0.0 Domain.all in
  check_float "weights sum to 1" 1.0 total

(* --- Freq ----------------------------------------------------------- *)

let test_freq_steps () =
  Alcotest.(check int) "16 steps" 16 Freq.num_steps;
  Alcotest.(check int) "first" 250 Freq.steps.(0);
  Alcotest.(check int) "last" 1000 Freq.steps.(Freq.num_steps - 1);
  Array.iter
    (fun f -> Alcotest.(check int) "index roundtrip" f (Freq.of_index (Freq.index_of f)))
    Freq.steps

let test_freq_clamp () =
  Alcotest.(check int) "below" 250 (Freq.clamp 100);
  Alcotest.(check int) "above" 1000 (Freq.clamp 5000);
  Alcotest.(check int) "snap down" 500 (Freq.clamp 510);
  Alcotest.(check int) "snap up" 550 (Freq.clamp 530);
  Alcotest.(check int) "exact" 700 (Freq.clamp 700)

let test_freq_voltage () =
  check_float "vmax at fmax" 1.20 (Freq.voltage 1000);
  check_float "vmin at fmin" 0.65 (Freq.voltage 250);
  let v625 = Freq.voltage 625 in
  check_float "midpoint" ((1.20 +. 0.65) /. 2.0) v625;
  Alcotest.(check bool) "monotone" true
    (Array.for_all
       (fun f -> Freq.voltage f <= Freq.voltage (f + 50) +. 1e-9)
       (Array.sub Freq.steps 0 (Freq.num_steps - 1)))

let test_freq_period () =
  Alcotest.(check int) "1GHz period" 1000 (Freq.period_ps 1000.0);
  Alcotest.(check int) "250MHz period" 4000 (Freq.period_ps 250.0);
  Alcotest.(check int) "750MHz period" 1333 (Freq.period_ps 750.0)

let test_freq_energy_scale () =
  check_float "full speed scale" 1.0 (Freq.energy_scale 1000.0);
  let s = Freq.energy_scale 250.0 in
  check_float "min scale is (vmin/vmax)^2" (0.65 *. 0.65 /. (1.2 *. 1.2)) s

(* --- Dvfs ----------------------------------------------------------- *)

let test_dvfs_initial () =
  let d = Dvfs.create () in
  List.iter
    (fun dom ->
      check_float "starts at fmax" 1000.0 (Dvfs.current_mhz d dom ~now:Time.zero))
    Domain.all

let test_dvfs_slew_rate () =
  let d = Dvfs.create () in
  Dvfs.set_target d Domain.Integer ~now:Time.zero ~mhz:250;
  (* 73.3 ns/MHz: after 73.3 ns the frequency has moved 1 MHz *)
  let f1 = Dvfs.current_mhz d Domain.Integer ~now:(Time.of_ns_float 73.3) in
  Alcotest.(check bool) "one MHz down" true (Float.abs (f1 -. 999.0) < 0.01);
  (* the full 750 MHz traversal takes about 55 us *)
  let f_before = Dvfs.current_mhz d Domain.Integer ~now:(Time.us 54) in
  Alcotest.(check bool) "not yet at floor" true (f_before > 250.0);
  let f_after = Dvfs.current_mhz d Domain.Integer ~now:(Time.us 56) in
  check_float "at floor after 55us" 250.0 f_after

let test_dvfs_transition_flag () =
  let d = Dvfs.create () in
  Alcotest.(check bool) "stable initially" false
    (Dvfs.in_transition d Domain.Memory ~now:Time.zero);
  Dvfs.set_target d Domain.Memory ~now:Time.zero ~mhz:500;
  Alcotest.(check bool) "in transition" true
    (Dvfs.in_transition d Domain.Memory ~now:(Time.us 1));
  Alcotest.(check bool) "settled" false
    (Dvfs.in_transition d Domain.Memory ~now:(Time.us 50))

let test_dvfs_retarget_mid_ramp () =
  let d = Dvfs.create () in
  Dvfs.set_target d Domain.Floating ~now:Time.zero ~mhz:250;
  (* halfway down, turn around *)
  let mid = Dvfs.current_mhz d Domain.Floating ~now:(Time.us 20) in
  Dvfs.set_target d Domain.Floating ~now:(Time.us 20) ~mhz:1000;
  let later = Dvfs.current_mhz d Domain.Floating ~now:(Time.us 30) in
  Alcotest.(check bool) "coming back up" true (later > mid);
  Alcotest.(check int) "target" 1000 (Dvfs.target_mhz d Domain.Floating)

(* Regression: the slew must land exactly on the target — not merely
   asymptotically close — no matter how finely queries are interleaved,
   because [in_transition] compares [current] and [target] with float
   equality. Drive a full-range ramp with many irregular tiny steps and
   demand an exact arrival. *)
let test_dvfs_interleaved_slew_terminates () =
  let d = Dvfs.create () in
  Dvfs.set_target d Domain.Integer ~now:Time.zero ~mhz:250;
  (* 750 MHz at 73.3 ns/MHz ~ 55 us; step with awkward increments *)
  let now = ref Time.zero in
  let steps = [| 137; 731; 7; 1; 4099; 53 |] in
  let i = ref 0 in
  while
    Dvfs.in_transition d Domain.Integer ~now:!now
    && !now < Time.us 60 (* bound the loop if the fix regresses *)
  do
    now := !now + Time.ps steps.(!i mod Array.length steps);
    incr i;
    ignore (Dvfs.current_mhz d Domain.Integer ~now:!now)
  done;
  Alcotest.(check bool) "terminates within the ramp time" true
    (!now < Time.us 60);
  Alcotest.(check bool) "settled" false
    (Dvfs.in_transition d Domain.Integer ~now:!now);
  Alcotest.(check (float 0.0)) "landed exactly on the target" 250.0
    (Dvfs.current_mhz d Domain.Integer ~now:!now)

let test_dvfs_past_query_no_rewind () =
  let d = Dvfs.create () in
  Dvfs.set_target d Domain.Integer ~now:Time.zero ~mhz:500;
  let at_10us = Dvfs.current_mhz d Domain.Integer ~now:(Time.us 10) in
  (* a query at an earlier time answers with the current point *)
  let past = Dvfs.current_mhz d Domain.Integer ~now:(Time.us 5) in
  check_float "no rewind" at_10us past

let test_dvfs_clamps_target () =
  let d = Dvfs.create () in
  Dvfs.set_target d Domain.Integer ~now:Time.zero ~mhz:123;
  Alcotest.(check int) "snapped" 250 (Dvfs.target_mhz d Domain.Integer)

let test_dvfs_snap_diagnostic () =
  let d = Dvfs.create () in
  let snaps = ref [] in
  let on_snap ~requested ~snapped = snaps := (requested, snapped) :: !snaps in
  (* off-grid request: the hook fires with both values *)
  Dvfs.set_target ~on_snap d Domain.Integer ~now:Time.zero ~mhz:313;
  Alcotest.(check (list (pair int int))) "snap reported" [ (313, 300) ] !snaps;
  (* on-grid request: silent *)
  Dvfs.set_target ~on_snap d Domain.Integer ~now:Time.zero ~mhz:500;
  Alcotest.(check int) "no spurious report" 1 (List.length !snaps)

let test_dvfs_stuck_fault () =
  let d = Dvfs.create () in
  Dvfs.inject d (Dvfs.Stuck_at (Domain.Memory, 313));
  Alcotest.(check int) "pinned on a legal step" 300
    (Dvfs.target_mhz d Domain.Memory);
  Dvfs.set_target d Domain.Memory ~now:Time.zero ~mhz:500;
  Alcotest.(check int) "writes ignored" 300 (Dvfs.target_mhz d Domain.Memory)

let test_dvfs_frozen_slew_fault () =
  let d = Dvfs.create () in
  Dvfs.inject d (Dvfs.Frozen_slew Domain.Floating);
  Dvfs.set_target d Domain.Floating ~now:Time.zero ~mhz:250;
  Alcotest.(check int) "target accepted" 250
    (Dvfs.target_mhz d Domain.Floating);
  check_float "operating point never moves" 1000.0
    (Dvfs.current_mhz d Domain.Floating ~now:(Time.us 100))

(* A settled domain answers its step, and that answer observes [now] as
   [current_mhz] would: a later retarget's ramp starts from the latest
   query, wherever it came from. *)
let test_dvfs_settled_step_keeps_last () =
  let settled_at_500 () =
    let d = Dvfs.create () in
    Dvfs.set_target d Domain.Integer ~now:Time.zero ~mhz:500;
    ignore (Dvfs.current_mhz d Domain.Integer ~now:(Time.us 60));
    d
  in
  let a = settled_at_500 () and b = settled_at_500 () in
  Alcotest.(check int) "settled on the 500 MHz step" (Freq.index_of 500)
    (Dvfs.settled_step a Domain.Integer ~now:(Time.us 80));
  ignore (Dvfs.current_mhz b Domain.Integer ~now:(Time.us 80));
  (* retargeted at a time before the last query *)
  List.iter
    (fun d -> Dvfs.set_target d Domain.Integer ~now:(Time.us 70) ~mhz:1000)
    [ a; b ];
  Alcotest.(check int) "slewing" (-1)
    (Dvfs.settled_step a Domain.Integer ~now:(Time.us 90));
  let fa = Dvfs.current_mhz a Domain.Integer ~now:(Time.us 90) in
  Alcotest.(check (float 0.0)) "same ramp as current_mhz"
    (Dvfs.current_mhz b Domain.Integer ~now:(Time.us 90))
    fa;
  (* 10 us from the 80 us query, not 30 us from the 60 us one *)
  Alcotest.(check bool) "ramp starts at the last query" true
    (fa > 600.0 && fa < 700.0)

(* --- Clock ---------------------------------------------------------- *)

(* A DVFS state whose integer domain rests at [mhz]. *)
let fixed_dvfs mhz =
  let d = Dvfs.create () in
  Dvfs.force d Domain.Integer ~mhz;
  d

let test_clock_advance () =
  let c =
    Clock.create ~jitter_sigma_ps:0.0 ~rng:(Rng.create 1)
      ~dvfs:(fixed_dvfs 1000) ~domain:Domain.Integer ()
  in
  Alcotest.(check int) "first edge at zero" 0 (Clock.next_edge c);
  Clock.advance c;
  Alcotest.(check int) "next edge" 1000 (Clock.next_edge c);
  Clock.advance c;
  Alcotest.(check int) "cycles" 2 (Clock.cycles c)

let test_clock_jitter_bounded () =
  let c =
    Clock.create ~rng:(Rng.create 2) ~dvfs:(fixed_dvfs 1000)
      ~domain:Domain.Integer ()
  in
  let prev = ref (Clock.next_edge c) in
  for _ = 1 to 1000 do
    Clock.advance c;
    let e = Clock.next_edge c in
    let delta = e - !prev in
    if delta < 1000 - 110 || delta > 1000 + 110 then
      Alcotest.failf "edge spacing %d outside jitter bound" delta;
    prev := e
  done

let test_clock_monotone () =
  let c =
    Clock.create ~rng:(Rng.create 3) ~dvfs:(fixed_dvfs 250)
      ~domain:Domain.Integer ()
  in
  let prev = ref (-1) in
  for _ = 1 to 500 do
    let e = Clock.next_edge c in
    if e <= !prev then Alcotest.fail "clock went backward";
    prev := e;
    Clock.advance c
  done

let test_clock_project_edge () =
  let c =
    Clock.create ~jitter_sigma_ps:0.0 ~rng:(Rng.create 4)
      ~dvfs:(fixed_dvfs 1000) ~domain:Domain.Integer ()
  in
  Clock.advance c;
  Clock.advance c;
  (* next edge at 2000 *)
  Alcotest.(check int) "at edge" 2000 (Clock.project_edge c ~at_or_after:2000);
  Alcotest.(check int) "between" 3000 (Clock.project_edge c ~at_or_after:2001);
  Alcotest.(check int) "future" 5000 (Clock.project_edge c ~at_or_after:4001);
  Alcotest.(check int) "past extrapolation" 1000
    (Clock.project_edge c ~at_or_after:500);
  Alcotest.(check int) "past exact" 1000
    (Clock.project_edge c ~at_or_after:1000)

(* A settled clock reads its period from a per-step table; a slewing
   one computes it. Both must answer what [Freq.period_ps] gives for the
   operating point [Dvfs.current_mhz] reports at the same instant. *)
let test_clock_period_matches_operating_point () =
  Array.iter
    (fun mhz ->
      let c =
        Clock.create ~jitter_sigma_ps:0.0 ~rng:(Rng.create 6)
          ~dvfs:(fixed_dvfs mhz) ~domain:Domain.Integer ()
      in
      Alcotest.(check int)
        (Printf.sprintf "settled at %d" mhz)
        (Freq.period_ps (float_of_int mhz))
        (Clock.period_ps c ~now:Time.zero))
    Freq.steps;
  let slewing () =
    let d = Dvfs.create () in
    Dvfs.set_target d Domain.Integer ~now:Time.zero ~mhz:250;
    d
  in
  let d = slewing () and reference = slewing () in
  let c =
    Clock.create ~jitter_sigma_ps:0.0 ~rng:(Rng.create 7) ~dvfs:d
      ~domain:Domain.Integer ()
  in
  List.iter
    (fun ns ->
      let now = Time.ns ns in
      Alcotest.(check int)
        (Printf.sprintf "slewing at %d ns" ns)
        (Freq.period_ps (Dvfs.current_mhz reference Domain.Integer ~now))
        (Clock.period_ps c ~now))
    [ 100; 7_300; 20_000; 54_000; 60_000 ]

(* --- Sync ----------------------------------------------------------- *)

let mk_consumer ?(offset = 0) mhz =
  let c =
    Clock.create ~jitter_sigma_ps:0.0 ~rng:(Rng.create 5)
      ~dvfs:(fixed_dvfs mhz) ~domain:Domain.Integer ()
  in
  for _ = 1 to offset do
    Clock.advance c
  done;
  c

let test_sync_clean_capture () =
  let consumer = mk_consumer 1000 in
  (* production at 400 ps: next edge 1000, distance 600 > 300 window,
     and 1000-600=400 > window on the other side too *)
  let a =
    Sync.arrival (Sync.create_stats ()) ~consumer ~producer_period_ps:1000
      ~t:400
  in
  Alcotest.(check int) "captured at next edge" 1000 a

let test_sync_window_penalty_close_after () =
  let consumer = mk_consumer 1000 in
  (* production at 900 ps: distance to edge 1000 is 100 < 300 *)
  let a = Sync.arrival (Sync.create_stats ()) ~consumer
      ~producer_period_ps:1000 ~t:900 in
  Alcotest.(check int) "slipped one cycle" 2000 a

let test_sync_window_penalty_close_before () =
  let consumer = mk_consumer 1000 in
  (* production at 1100: distance to capturing edge 2000 is 900; but the
     edge just missed (1000) is only 100 behind -> unsafe *)
  let a = Sync.arrival (Sync.create_stats ()) ~consumer
      ~producer_period_ps:1000 ~t:1100 in
  Alcotest.(check int) "slipped one cycle" 3000 a

let test_sync_stats () =
  let consumer = mk_consumer 1000 in
  let stats = Sync.create_stats () in
  let _ = Sync.arrival stats ~consumer ~producer_period_ps:1000 ~t:400 in
  let _ = Sync.arrival stats ~consumer ~producer_period_ps:1000 ~t:900 in
  Alcotest.(check int) "crossings" 2 stats.Sync.crossings;
  Alcotest.(check int) "penalties" 1 stats.Sync.penalties

let test_sync_window_boundaries () =
  (* Window = 30% of the 1000 ps period = 300 ps, and the unsafe test is
     strict on both sides: a production edge exactly [window] away from
     either consumer edge captures cleanly; one ps closer slips. *)
  let stats = Sync.create_stats () in
  let at t =
    Sync.arrival stats ~consumer:(mk_consumer 1000) ~producer_period_ps:1000
      ~t
  in
  Alcotest.(check int) "distance = window is safe" 1000 (at 700);
  Alcotest.(check int) "period - distance = window is safe" 1000 (at 300);
  Alcotest.(check int) "distance = window - 1 slips" 2000 (at 701);
  Alcotest.(check int) "hold-side window - 1 slips" 2000 (at 299);
  (* each unsafe crossing counts exactly once *)
  Alcotest.(check int) "crossings" 4 stats.Sync.crossings;
  Alcotest.(check int) "penalties" 2 stats.Sync.penalties

let test_sync_window_uses_faster_clock () =
  (* consumer at 250 MHz (4000 ps): window is 30% of the faster
     (producer, 1000 ps) = 300 ps *)
  let consumer = mk_consumer 250 in
  let a = Sync.arrival (Sync.create_stats ()) ~consumer
      ~producer_period_ps:1000 ~t:1000 in
  (* distance to edge 4000 is 3000 ps; other side 1000 ps: both safe *)
  Alcotest.(check int) "safe capture" 4000 a

(* --- Reconfig ------------------------------------------------------- *)

let test_reconfig_make () =
  let s = Reconfig.make ~front_end:480 ~integer:1200 ~floating:250 ~memory:20 in
  Alcotest.(check int) "snap fe" 500 (Reconfig.get s Domain.Front_end);
  Alcotest.(check int) "clamp int" 1000 (Reconfig.get s Domain.Integer);
  Alcotest.(check int) "fp" 250 (Reconfig.get s Domain.Floating);
  Alcotest.(check int) "clamp mem" 250 (Reconfig.get s Domain.Memory)

let test_reconfig_write () =
  let dvfs = Dvfs.create () in
  let r = Reconfig.create dvfs in
  Alcotest.(check int) "no writes" 0 (Reconfig.writes r);
  let s = Reconfig.make ~front_end:1000 ~integer:500 ~floating:250 ~memory:750 in
  Reconfig.write r s ~now:Time.zero;
  Alcotest.(check int) "one write" 1 (Reconfig.writes r);
  Alcotest.(check int) "target set" 500 (Dvfs.target_mhz dvfs Domain.Integer);
  Alcotest.(check int) "target set fp" 250 (Dvfs.target_mhz dvfs Domain.Floating);
  Alcotest.(check bool) "last setting" true
    (Reconfig.equal (Reconfig.last_setting r) s)

let test_reconfig_noop_writes_not_counted () =
  (* Regression: rewriting the live setting used to bump the write
     counter even though nothing changed. *)
  let dvfs = Dvfs.create () in
  let r = Reconfig.create dvfs in
  let s = Reconfig.make ~front_end:1000 ~integer:500 ~floating:250 ~memory:750 in
  Reconfig.write r s ~now:Time.zero;
  Reconfig.write r s ~now:(Time.us 1);
  Alcotest.(check int) "second identical write is a no-op" 1
    (Reconfig.writes r);
  (* the register starts at full speed, so writing full speed first is
     also a no-op *)
  let r2 = Reconfig.create (Dvfs.create ()) in
  Reconfig.write r2 (Reconfig.full_speed ()) ~now:Time.zero;
  Alcotest.(check int) "initial full-speed write is a no-op" 0
    (Reconfig.writes r2)

let test_reconfig_noop_event_traced () =
  (* With a sink attached, the skipped write still leaves an audit
     event, flagged noop, and lands in the noop counter. *)
  let sink = Mcd_obs.Sink.create ~domains:Domain.count () in
  let r = Reconfig.create (Dvfs.create ()) in
  let s = Reconfig.make ~front_end:1000 ~integer:500 ~floating:250 ~memory:750 in
  Reconfig.write ~sink r s ~now:Time.zero;
  Reconfig.write ~sink r s ~now:(Time.us 1);
  let noops =
    List.filter
      (function
        | Mcd_obs.Sink.Reconfig_write { noop; _ } -> noop
        | _ -> false)
      (Mcd_obs.Sink.events sink)
  in
  Alcotest.(check int) "one noop event" 1 (List.length noops);
  let m = Mcd_obs.Sink.metrics sink in
  Alcotest.(check int) "obs.noop_writes" 1
    (Mcd_obs.Metrics.value (Mcd_obs.Metrics.counter m "obs.noop_writes"));
  Alcotest.(check int) "obs.reconfig_writes counts the real one" 1
    (Mcd_obs.Metrics.value (Mcd_obs.Metrics.counter m "obs.reconfig_writes"))

let test_reconfig_full_speed_fresh () =
  let a = Reconfig.full_speed () in
  a.(0) <- 250;
  let b = Reconfig.full_speed () in
  Alcotest.(check int) "fresh array" 1000 b.(0)

(* --- qcheck properties ---------------------------------------------- *)

let prop_clamp_idempotent =
  QCheck.Test.make ~name:"freq clamp idempotent" ~count:500
    QCheck.(int_range (-1000) 5000)
    (fun f -> Freq.clamp (Freq.clamp f) = Freq.clamp f)

let prop_voltage_in_range =
  QCheck.Test.make ~name:"voltage within rails" ~count:500
    QCheck.(float_range 0.0 2000.0)
    (fun f ->
      let v = Freq.voltage_f f in
      v >= Freq.vmin -. 1e-9 && v <= Freq.vmax +. 1e-9)

let prop_sync_arrival_after_production =
  QCheck.Test.make ~name:"sync arrival never precedes production" ~count:300
    QCheck.(pair (int_range 0 100_000) (int_range 0 15))
    (fun (t, step) ->
      let consumer = mk_consumer (Freq.of_index step) in
      Sync.arrival (Sync.create_stats ()) ~consumer ~producer_period_ps:1000
        ~t
      >= t)

let suite =
  [
    ("domain indexing", `Quick, test_domain_indexing);
    ("domain power weights", `Quick, test_domain_power_weights);
    ("freq steps", `Quick, test_freq_steps);
    ("freq clamp", `Quick, test_freq_clamp);
    ("freq voltage", `Quick, test_freq_voltage);
    ("freq period", `Quick, test_freq_period);
    ("freq energy scale", `Quick, test_freq_energy_scale);
    ("dvfs initial", `Quick, test_dvfs_initial);
    ("dvfs slew rate", `Quick, test_dvfs_slew_rate);
    ("dvfs transition flag", `Quick, test_dvfs_transition_flag);
    ("dvfs retarget mid-ramp", `Quick, test_dvfs_retarget_mid_ramp);
    ("dvfs settled step keeps last", `Quick, test_dvfs_settled_step_keeps_last);
    ("dvfs interleaved slew terminates", `Quick,
     test_dvfs_interleaved_slew_terminates);
    ("dvfs past query", `Quick, test_dvfs_past_query_no_rewind);
    ("dvfs clamps target", `Quick, test_dvfs_clamps_target);
    ("dvfs snap diagnostic", `Quick, test_dvfs_snap_diagnostic);
    ("dvfs stuck fault", `Quick, test_dvfs_stuck_fault);
    ("dvfs frozen slew fault", `Quick, test_dvfs_frozen_slew_fault);
    ("clock advance", `Quick, test_clock_advance);
    ("clock jitter bounded", `Quick, test_clock_jitter_bounded);
    ("clock monotone", `Quick, test_clock_monotone);
    ("clock project edge", `Quick, test_clock_project_edge);
    ("clock period matches operating point", `Quick,
     test_clock_period_matches_operating_point);
    ("sync clean capture", `Quick, test_sync_clean_capture);
    ("sync penalty after", `Quick, test_sync_window_penalty_close_after);
    ("sync penalty before", `Quick, test_sync_window_penalty_close_before);
    ("sync stats", `Quick, test_sync_stats);
    ("sync window boundaries", `Quick, test_sync_window_boundaries);
    ("sync faster-clock window", `Quick, test_sync_window_uses_faster_clock);
    ("reconfig make", `Quick, test_reconfig_make);
    ("reconfig write", `Quick, test_reconfig_write);
    ("reconfig noop writes not counted", `Quick,
     test_reconfig_noop_writes_not_counted);
    ("reconfig noop event traced", `Quick, test_reconfig_noop_event_traced);
    ("reconfig full-speed fresh", `Quick, test_reconfig_full_speed_fresh);
    qcheck prop_clamp_idempotent;
    qcheck prop_voltage_in_range;
    qcheck prop_sync_arrival_after_production;
  ]
