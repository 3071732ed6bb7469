(* Tests for the on-line attack/decay controller and the policy zoo,
   driven with synthetic samples. *)

module AD = Mcd_control.Attack_decay
module Policy = Mcd_control.Policy
module Policies = Mcd_control.Policies
module Controller = Mcd_cpu.Controller
module Domain = Mcd_domains.Domain
module Freq = Mcd_domains.Freq
module Reconfig = Mcd_domains.Reconfig
module Walker = Mcd_isa.Walker

let qcheck ?(seed = 0xc0de) t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t

let sample ?(elapsed = 10_000) ?(retired = 5_000) ?(l1d = 0) ?(l2 = 0)
    ~int_occ ~fp_occ ~mem_occ () =
  let occ = Array.make Domain.count 0.0 in
  occ.(Domain.index Domain.Integer) <- int_occ;
  occ.(Domain.index Domain.Floating) <- fp_occ;
  occ.(Domain.index Domain.Memory) <- mem_occ;
  {
    Controller.elapsed_cycles = elapsed;
    avg_occupancy = occ;
    retired;
    total_retired = retired;
    l1d_misses = l1d;
    l2_misses = l2;
    target_mhz = Array.make Domain.count Freq.fmax_mhz;
    current_mhz = Array.make Domain.count (float_of_int Freq.fmax_mhz);
  }

let feed ctl samples =
  let last = ref None in
  List.iteri
    (fun i s ->
      match ctl.Controller.on_sample s ~now:(i * 10_000_000) with
      | Some setting -> last := Some setting
      | None -> ())
    samples;
  !last

let test_idle_fp_plunges () =
  let ctl = AD.controller () in
  let samples =
    List.init 12 (fun _ -> sample ~int_occ:8.0 ~fp_occ:0.0 ~mem_occ:10.0 ())
  in
  match feed ctl samples with
  | Some setting ->
      Alcotest.(check int) "fp plunged to floor" Freq.fmin_mhz
        (Reconfig.get setting Domain.Floating)
  | None -> Alcotest.fail "controller never reconfigured"

let test_backlogged_domain_stays_fast () =
  let ctl = AD.controller () in
  let samples =
    List.init 12 (fun _ -> sample ~int_occ:14.0 ~fp_occ:0.0 ~mem_occ:5.0 ())
  in
  match feed ctl samples with
  | Some setting ->
      Alcotest.(check int) "backlogged integer stays at fmax" Freq.fmax_mhz
        (Reconfig.get setting Domain.Integer)
  | None -> Alcotest.fail "controller never reconfigured"

let test_low_util_decays () =
  let ctl = AD.controller () in
  (* integer lightly used and IPC steady: should drift downward *)
  let samples =
    List.init 30 (fun _ -> sample ~int_occ:1.5 ~fp_occ:6.0 ~mem_occ:10.0 ())
  in
  match feed ctl samples with
  | Some setting ->
      Alcotest.(check bool) "integer decayed" true
        (Reconfig.get setting Domain.Integer < Freq.fmax_mhz)
  | None -> Alcotest.fail "controller never reconfigured"

let test_guard_reverts_on_ipc_drop () =
  let ctl = AD.controller () in
  (* run stable, then decay happens; afterwards IPC collapses: the guard
     must push the frequency back up *)
  let stable =
    List.init 6 (fun _ ->
        sample ~retired:6_000 ~int_occ:1.5 ~fp_occ:5.0 ~mem_occ:10.0 ())
  in
  let collapsed =
    List.init 8 (fun _ ->
        sample ~retired:1_000 ~int_occ:1.5 ~fp_occ:5.0 ~mem_occ:10.0 ())
  in
  let _ = feed ctl stable in
  let after = feed ctl collapsed in
  match after with
  | Some setting ->
      (* after reverts and cooldowns the integer frequency should not be
         at the floor *)
      Alcotest.(check bool) "guard kept frequency off the floor" true
        (Reconfig.get setting Domain.Integer > Freq.fmin_mhz)
  | None ->
      (* no reconfiguration at all also means no runaway decay *)
      ()

let test_guard_revert_is_exact () =
  (* Regression: the guard used to undo a decay_step_mhz (50) decay by
     adding attack_step_mhz (150), overshooting the pre-decay frequency
     by 100 MHz. Drive the integer domain down to 700 MHz with two idle
     plunges, trigger one decay to 650, then collapse the IPC so the
     guard fires: it must restore exactly 700 MHz, not 800. *)
  let ctl = AD.controller () in
  (* three idle samples: prev_util primes on the first, the next two
     plunge 1000 -> 850 -> 700 *)
  let idle =
    List.init 3 (fun _ -> sample ~int_occ:0.1 ~fp_occ:6.0 ~mem_occ:30.0 ())
  in
  (* light-but-present utilisation with steady IPC: decays 700 -> 650
     and arms the guard (pending_check = 3) *)
  let decay = [ sample ~int_occ:0.8 ~fp_occ:6.0 ~mem_occ:30.0 () ] in
  (* IPC collapses while utilisation holds: when the pending check
     expires the guard must revert the decay *)
  let collapsed =
    List.init 3 (fun _ ->
        sample ~retired:500 ~int_occ:0.8 ~fp_occ:6.0 ~mem_occ:30.0 ())
  in
  let last = feed ctl (idle @ decay @ collapsed) in
  match last with
  | Some setting ->
      Alcotest.(check int) "revert restores the exact pre-decay frequency"
        700
        (Reconfig.get setting Domain.Integer)
  | None -> Alcotest.fail "guard never fired"

let test_attack_on_rising_util () =
  let ctl = AD.controller () in
  (* establish low utilisation, decay a bit, then a surge *)
  let low =
    List.init 10 (fun _ -> sample ~int_occ:1.0 ~fp_occ:2.0 ~mem_occ:5.0 ())
  in
  let surge = [ sample ~int_occ:19.0 ~fp_occ:2.0 ~mem_occ:5.0 () ] in
  let _ = feed ctl low in
  match feed ctl surge with
  | Some setting ->
      Alcotest.(check int) "deep backlog jumps to fmax" Freq.fmax_mhz
        (Reconfig.get setting Domain.Integer)
  | None -> Alcotest.fail "no reaction to surge"

let test_front_end_never_scaled () =
  let ctl = AD.controller () in
  let samples =
    List.init 20 (fun _ -> sample ~int_occ:0.0 ~fp_occ:0.0 ~mem_occ:0.0 ())
  in
  match feed ctl samples with
  | Some setting ->
      Alcotest.(check int) "front-end fixed" Freq.fmax_mhz
        (Reconfig.get setting Domain.Front_end)
  | None -> Alcotest.fail "controller never reconfigured"

let test_markers_ignored () =
  let ctl = AD.controller () in
  let r =
    ctl.Controller.on_marker (Walker.Enter_func { fid = 0; site_id = None })
      ~now:0
  in
  Alcotest.(check bool) "no marker reaction" true (r = Controller.no_reaction)

let test_params_interval_exposed () =
  let p = { AD.default_params with AD.interval_cycles = 1234 } in
  let ctl = AD.controller ~params:p () in
  Alcotest.(check int) "interval" 1234 ctl.Controller.sample_interval_cycles

let test_revert_clears_idle_streak () =
  (* Regression: the revert path used to leave [idle_streak] as the
     pending window had accumulated it, so a revert sample whose own
     utilisation was idle pushed the streak to 2 and the plunge branch
     (which ignores the revert cooldown) undid the revert by
     attack_step_mhz in the very same sample. Drive: prime, decay
     (pending = 3), one dead-zone sample, one idle sample (streak 1),
     then an idle sample with collapsed IPC — the guard reverts to the
     pre-decay 1000 MHz and, with the streak cleared, must NOT plunge. *)
  let ctl = AD.controller () in
  let s ?(retired = 6_000) int_occ =
    sample ~retired ~int_occ ~fp_occ:6.0 ~mem_occ:20.0 ()
  in
  let last =
    feed ctl
      [
        s 1.0 (* prime prev_util at 0.05 *);
        s 1.0 (* decay: 1000 -> 950, pending_check = 3 *);
        s 0.6 (* dead zone, pending 3 -> 2, streak stays 0 *);
        s ~retired:500 0.2 (* idle, pending 2 -> 1, streak 1 *);
        s ~retired:500 0.2
        (* pending 1 -> 0 with collapsed IPC: revert to 1000; the idle
           streak would hit 2 here if the revert did not clear it *);
      ]
  in
  match last with
  | Some setting ->
      Alcotest.(check int) "revert survives its own idle sample" 1000
        (Reconfig.get setting Domain.Integer)
  | None -> Alcotest.fail "guard never fired"

(* --- Policies --------------------------------------------------------- *)

let test_fixed_policy_fires_once () =
  let setting =
    Reconfig.make ~front_end:1000 ~integer:500 ~floating:250 ~memory:1000
  in
  let ctl = (Policies.fixed setting).Policy.create () in
  let m = Walker.Enter_func { fid = 0; site_id = None } in
  let r1 = ctl.Controller.on_marker m ~now:0 in
  let r2 = ctl.Controller.on_marker m ~now:1 in
  Alcotest.(check bool) "first marker sets" true (r1.Controller.set = Some setting);
  Alcotest.(check bool) "second marker silent" true (r2.Controller.set = None)

let test_fixed_policy_value_is_reusable () =
  (* Regression: the armed flag used to live in the policy value, so a
     second run with the same value never applied its setting. [create]
     must return a controller that fires afresh every time. *)
  let setting =
    Reconfig.make ~front_end:1000 ~integer:500 ~floating:250 ~memory:1000
  in
  let p = Policies.fixed setting in
  let m = Walker.Enter_func { fid = 0; site_id = None } in
  let fires () =
    let ctl = p.Policy.create () in
    (ctl.Controller.on_marker m ~now:0).Controller.set = Some setting
  in
  Alcotest.(check bool) "first run fires" true (fires ());
  Alcotest.(check bool) "second run fires too" true (fires ())

let test_baseline_policy_inert () =
  let ctl = Policies.baseline.Policy.create () in
  let m = Walker.Enter_func { fid = 0; site_id = None } in
  Alcotest.(check bool) "no reaction" true
    (ctl.Controller.on_marker m ~now:0 = Controller.no_reaction);
  Alcotest.(check int) "no sampling" 0 ctl.Controller.sample_interval_cycles

let test_registry_labels_unique () =
  let labels = Policies.names () in
  Alcotest.(check int) "labels are unique"
    (List.length labels)
    (List.length (List.sort_uniq compare labels));
  Alcotest.(check bool) "at least six contenders" true
    (List.length (Policies.contenders ()) >= 6);
  List.iter
    (fun l ->
      match Policies.by_name l with
      | Some p -> Alcotest.(check string) "by_name roundtrip" l p.Policy.label
      | None -> Alcotest.failf "by_name %S misses" l)
    labels

(* The registry is built once: a lookup on the request path returns the
   registered value itself, not a freshly rebuilt copy. *)
let test_registry_built_once () =
  match (Policies.by_name "online", Policies.by_name "online") with
  | Some a, Some b ->
      Alcotest.(check bool) "by_name returns the same value" true (a == b);
      Alcotest.(check bool) "all () returns the same list" true
        (Policies.all () == Policies.all ())
  | _ -> Alcotest.fail "online is not registered"

let test_same_name_params_distinct_fragments () =
  let a = Policies.online () and b = Policies.online_eager () in
  Alcotest.(check string) "one cache-key name" a.Policy.name b.Policy.name;
  Alcotest.(check bool) "distinct key fragments" true
    (Policy.key_fragment a <> Policy.key_fragment b)

(* The zoo contract, property-tested over random sample streams: every
   emitted setting is on the legal frequency grid, and no policy
   changes a domain's frequency while its declared cooldown is still
   running. *)
let prop_zoo_settings_legal =
  let gen =
    QCheck.(
      list_of_size (Gen.int_range 10 40)
        (quad (float_range 0.0 24.0) (float_range 0.0 16.0)
           (float_range 0.0 70.0)
           (pair (int_range 100 9_000) (int_range 0 400))))
  in
  QCheck.Test.make ~name:"zoo: legal grid settings, cooldown honoured"
    ~count:30 gen
    (fun stream ->
      List.for_all
        (fun p ->
          let ctl = p.Policy.create () in
          let last_change = Array.make Domain.count (-1_000_000) in
          let prev = Array.make Domain.count Freq.fmax_mhz in
          List.for_all Fun.id
            (List.mapi
               (fun k (int_occ, fp_occ, (mem_occ : float), (retired, l2)) ->
                 match
                   ctl.Controller.on_sample
                     (sample ~retired ~l1d:(l2 * 3) ~l2 ~int_occ ~fp_occ
                        ~mem_occ ())
                     ~now:(k * 10_000_000)
                 with
                 | None -> true
                 | Some setting ->
                     List.for_all
                       (fun d ->
                         let i = Domain.index d in
                         let f = Reconfig.get setting d in
                         let legal =
                           Freq.is_step f && f >= Freq.fmin_mhz
                           && f <= Freq.fmax_mhz
                         in
                         let cooled =
                           f = prev.(i)
                           || p.Policy.cooldown_intervals = 0
                           || k - last_change.(i)
                              >= p.Policy.cooldown_intervals
                         in
                         if f <> prev.(i) then begin
                           prev.(i) <- f;
                           last_change.(i) <- k
                         end;
                         legal && cooled)
                       Domain.all)
               stream))
        (Policies.all ()))

let suite =
  [
    ("idle fp plunges", `Quick, test_idle_fp_plunges);
    ("backlogged domain stays fast", `Quick, test_backlogged_domain_stays_fast);
    ("low utilisation decays", `Quick, test_low_util_decays);
    ("guard reverts on ipc drop", `Quick, test_guard_reverts_on_ipc_drop);
    ("guard revert is exact", `Quick, test_guard_revert_is_exact);
    ("revert clears the idle streak", `Quick, test_revert_clears_idle_streak);
    ("attack on rising utilisation", `Quick, test_attack_on_rising_util);
    ("front-end never scaled", `Quick, test_front_end_never_scaled);
    ("markers ignored", `Quick, test_markers_ignored);
    ("params interval exposed", `Quick, test_params_interval_exposed);
    ("fixed policy fires once", `Quick, test_fixed_policy_fires_once);
    ( "fixed policy value is reusable",
      `Quick,
      test_fixed_policy_value_is_reusable );
    ("baseline policy inert", `Quick, test_baseline_policy_inert);
    ("registry labels unique", `Quick, test_registry_labels_unique);
    ("registry built once", `Quick, test_registry_built_once);
    ( "same name, different params, distinct fragments",
      `Quick,
      test_same_name_params_distinct_fragments );
    qcheck prop_zoo_settings_legal;
  ]
