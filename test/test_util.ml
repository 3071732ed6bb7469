(* Unit and property tests for Mcd_util. *)

module Rng = Mcd_util.Rng
module Histogram = Mcd_util.Histogram
module Stats = Mcd_util.Stats
module Table = Mcd_util.Table
module Time = Mcd_util.Time
module Vec = Mcd_util.Vec
module Agequeue = Mcd_util.Agequeue
module Par = Mcd_util.Par

let qcheck ?(seed = 0x0711) t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t

let check_float = Alcotest.(check (float 1e-9))

(* --- Rng ------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.int64 a <> Rng.int64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let c1 = Rng.split parent ~label:"a" in
  let c2 = Rng.split parent ~label:"b" in
  Alcotest.(check bool) "distinct labels give distinct streams" true
    (Rng.int64 c1 <> Rng.int64 c2);
  (* splitting does not advance the parent *)
  let p1 = Rng.create 7 in
  let _ = Rng.split p1 ~label:"x" in
  let p2 = Rng.create 7 in
  Alcotest.(check int64) "split leaves parent intact" (Rng.int64 p1)
    (Rng.int64 p2)

let test_rng_split_reproducible () =
  let c1 = Rng.split (Rng.create 9) ~label:"stream" in
  let c2 = Rng.split (Rng.create 9) ~label:"stream" in
  Alcotest.(check int64) "same label same stream" (Rng.int64 c1)
    (Rng.int64 c2)

(* The first draws of one seed, captured before the generator's state
   was unboxed: the raw stream, the float mapping, both halves of a
   Box-Muller pair (the second comes from the cached spare), a split
   child, and the parent's next draw after the split. Every clock's
   jitter and every workload stream reads this generator, so a changed
   bit here moves every simulated result. *)
let test_rng_golden_draws () =
  let t = Rng.create 2003 in
  Alcotest.(check int64) "int64" 7096296436637601017L (Rng.int64 t);
  let bits label expected v =
    Alcotest.(check int64) label expected (Int64.bits_of_float v)
  in
  bits "float" (Int64.bits_of_float 0x1.037ef94242ba2p-2) (Rng.float t 1.0);
  bits "normal, first of pair" (Int64.bits_of_float (-0x1.3cfd733196dacp-1))
    (Rng.normal t ~mean:0.0 ~sigma:1.0);
  bits "normal, cached spare" (Int64.bits_of_float 0x1.4652aba14ed17p-1)
    (Rng.normal t ~mean:0.0 ~sigma:1.0);
  let child = Rng.split t ~label:"front-end" in
  Alcotest.(check int64) "split child" (-4066377576557424522L)
    (Rng.int64 child);
  Alcotest.(check int64) "parent after split" 5441427589306205766L
    (Rng.int64 t)

let test_rng_int_bounds () =
  let t = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int t 17 in
    if v < 0 || v >= 17 then Alcotest.fail "Rng.int out of bounds"
  done

let test_rng_float_bounds () =
  let t = Rng.create 4 in
  for _ = 1 to 10_000 do
    let v = Rng.float t 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.fail "Rng.float out of bounds"
  done

let test_rng_bool_bias () =
  let t = Rng.create 5 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bool t 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "bias near 0.3" true (p > 0.27 && p < 0.33)

let test_rng_normal_moments () =
  let t = Rng.create 6 in
  let n = 50_000 in
  let samples = List.init n (fun _ -> Rng.normal t ~mean:10.0 ~sigma:2.0) in
  let mean = Stats.mean samples in
  let sd = Stats.stddev samples in
  Alcotest.(check bool) "mean near 10" true (Float.abs (mean -. 10.0) < 0.1);
  Alcotest.(check bool) "sigma near 2" true (Float.abs (sd -. 2.0) < 0.1)

let test_rng_geometric () =
  let t = Rng.create 8 in
  let n = 50_000 in
  let samples = List.init n (fun _ -> float_of_int (Rng.geometric t ~mean:4.0)) in
  List.iter (fun v -> if v < 1.0 then Alcotest.fail "geometric below 1") samples;
  let mean = Stats.mean samples in
  Alcotest.(check bool) "mean in a sane band" true (mean > 3.0 && mean < 6.0)

(* --- Histogram ------------------------------------------------------ *)

let test_histogram_basic () =
  let h = Histogram.create ~bins:4 in
  Histogram.add h ~bin:0 ~weight:1.5;
  Histogram.add h ~bin:3 ~weight:2.5;
  Histogram.add h ~bin:3 ~weight:1.0;
  check_float "bin 0" 1.5 (Histogram.get h ~bin:0);
  check_float "bin 3" 3.5 (Histogram.get h ~bin:3);
  check_float "total" 5.0 (Histogram.total h)

let test_histogram_errors () =
  let h = Histogram.create ~bins:2 in
  Alcotest.check_raises "bad bin" (Invalid_argument "Histogram.add: bin out of range")
    (fun () -> Histogram.add h ~bin:2 ~weight:1.0);
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Histogram.add: negative weight") (fun () ->
      Histogram.add h ~bin:0 ~weight:(-1.0));
  Alcotest.check_raises "bad create"
    (Invalid_argument "Histogram.create: bins must be positive") (fun () ->
      ignore (Histogram.create ~bins:0))

let test_histogram_merge () =
  let a = Histogram.create ~bins:3 and b = Histogram.create ~bins:3 in
  Histogram.add a ~bin:0 ~weight:1.0;
  Histogram.add b ~bin:0 ~weight:2.0;
  Histogram.add b ~bin:2 ~weight:3.0;
  Histogram.merge_into ~dst:a ~src:b;
  check_float "merged bin 0" 3.0 (Histogram.get a ~bin:0);
  check_float "merged bin 2" 3.0 (Histogram.get a ~bin:2);
  check_float "src unchanged" 2.0 (Histogram.get b ~bin:0)

let test_histogram_suffix_sum () =
  let h = Histogram.create ~bins:4 in
  List.iteri (fun i w -> Histogram.add h ~bin:i ~weight:w) [ 1.0; 2.0; 3.0; 4.0 ];
  check_float "suffix from 2" 7.0 (Histogram.suffix_sum h ~from:2);
  check_float "suffix from 0" 10.0 (Histogram.suffix_sum h ~from:0);
  check_float "suffix past end" 0.0 (Histogram.suffix_sum h ~from:4)

let test_histogram_copy_fold () =
  let h = Histogram.create ~bins:3 in
  Histogram.add h ~bin:1 ~weight:5.0;
  let c = Histogram.copy h in
  Histogram.add h ~bin:1 ~weight:1.0;
  check_float "copy is independent" 5.0 (Histogram.get c ~bin:1);
  let sum =
    Histogram.fold h ~init:0.0 ~f:(fun acc ~bin:_ ~weight -> acc +. weight)
  in
  check_float "fold sums" (Histogram.total h) sum

(* --- Stats ---------------------------------------------------------- *)

let test_stats_mean () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "mean empty" 0.0 (Stats.mean [])

let test_stats_geomean () =
  check_float "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  check_float "geomean empty" 0.0 (Stats.geomean [])

let test_stats_minmax () =
  check_float "min" 1.0 (Stats.minimum [ 3.0; 1.0; 2.0 ]);
  check_float "max" 3.0 (Stats.maximum [ 3.0; 1.0; 2.0 ]);
  Alcotest.check_raises "min empty"
    (Invalid_argument "Stats.minimum: empty list") (fun () ->
      ignore (Stats.minimum []))

let test_stats_stddev () =
  check_float "stddev constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check_float "stddev" 2.0 (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_stats_percent () =
  check_float "percent" 25.0 (Stats.percent 1.0 4.0);
  check_float "percent zero whole" 0.0 (Stats.percent 1.0 0.0);
  check_float "change" 10.0
    (Stats.ratio_percent_change ~baseline:100.0 ~value:110.0);
  check_float "negative change" (-10.0)
    (Stats.ratio_percent_change ~baseline:100.0 ~value:90.0)

(* --- Table ---------------------------------------------------------- *)

let test_table_render () =
  let s =
    Table.render ~header:[ "name"; "v" ]
      ~rows:[ [ "a"; "1" ]; [ "bb"; "22" ] ]
      ()
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "line count" 5 (List.length lines);
  (* header, separator, two rows, trailing newline *)
  Alcotest.(check bool) "column aligned" true
    (String.length (List.nth lines 2) = String.length (List.nth lines 3))

let test_table_pads_short_rows () =
  let s = Table.render ~header:[ "a"; "b"; "c" ] ~rows:[ [ "x" ] ] () in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_table_formats () =
  Alcotest.(check string) "f1" "3.1" (Table.fmt_f1 3.14159);
  Alcotest.(check string) "f2" "3.14" (Table.fmt_f2 3.14159);
  Alcotest.(check string) "pct" "3.1%" (Table.fmt_pct 3.14159)

(* --- Time ----------------------------------------------------------- *)

let test_time_conversions () =
  Alcotest.(check int) "ns" 1_000 (Time.ns 1);
  Alcotest.(check int) "us" 1_000_000 (Time.us 1);
  check_float "to_ns" 1.0 (Time.to_ns (Time.ns 1));
  check_float "to_us" 2.5 (Time.to_us (Time.ps 2_500_000));
  Alcotest.(check int) "of_ns_float rounds" 1_500 (Time.of_ns_float 1.5)

let test_time_pp () =
  let s t = Format.asprintf "%a" Time.pp t in
  Alcotest.(check string) "ps" "500 ps" (s 500);
  Alcotest.(check bool) "ns unit" true
    (String.length (s (Time.ns 100)) > 0
    && String.sub (s (Time.ns 100)) (String.length (s (Time.ns 100)) - 2) 2
       = "ns")

(* Serve deadlines and latencies difference two [now_s] reads: the
   clock must never run backwards and must see a sleep pass. *)
let test_time_now_s_monotonic () =
  let backwards = ref 0 and prev = ref (Time.now_s ()) in
  for _ = 1 to 10_000 do
    let now = Time.now_s () in
    if now < !prev then incr backwards;
    prev := now
  done;
  Alcotest.(check int) "reads that went backwards" 0 !backwards;
  let t0 = Time.now_s () in
  Unix.sleepf 0.01;
  let slept = Time.now_s () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "a 10 ms sleep advanced the clock %.4f s" slept)
    true (slept >= 0.009)

(* --- Vec ------------------------------------------------------------ *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 0" 0 (Vec.get v 0);
  Alcotest.(check int) "get 99" 99 (Vec.get v 99);
  Vec.set v 50 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 50)

let test_vec_bounds () =
  let v = Vec.create () in
  Vec.push v 1;
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index out of bounds")
    (fun () -> ignore (Vec.get v 1))

let test_vec_iter_fold () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.(check int) "fold" 6 (Vec.fold_left ( + ) 0 v);
  let order = ref [] in
  Vec.iteri (fun i x -> order := (i, x) :: !order) v;
  Alcotest.(check (list (pair int int))) "iteri order" [ (0, 1); (1, 2); (2, 3) ]
    (List.rev !order);
  Alcotest.(check (list int)) "to_list" [ 1; 2; 3 ] (Vec.to_list v);
  Alcotest.(check (array int)) "to_array" [| 1; 2; 3 |] (Vec.to_array v);
  Vec.clear v;
  Alcotest.(check int) "clear" 0 (Vec.length v)

(* --- Chart ----------------------------------------------------------- *)

let test_chart_bars () =
  let s =
    Mcd_util.Chart.bars
      ~groups:
        [
          ("alpha", [ ("a", 10.0); ("b", 5.0) ]);
          ("beta", [ ("a", -2.0) ]);
        ]
      ()
  in
  Alcotest.(check bool) "labels present" true
    (String.length s > 0
    && String.split_on_char '\n' s
       |> List.exists (fun l -> String.length l > 0 && l.[0] = 'a'));
  (* positive bars use '#', negatives use '-' *)
  Alcotest.(check bool) "has positive fill" true (String.contains s '#');
  Alcotest.(check bool) "has negative fill" true (String.contains s '-')

let test_chart_bars_scaling () =
  let s =
    Mcd_util.Chart.bars ~width:10
      ~groups:[ ("g", [ ("big", 100.0); ("half", 50.0) ]) ]
      ()
  in
  let count_hashes line =
    String.fold_left (fun n c -> if c = '#' then n + 1 else n) 0 line
  in
  match String.split_on_char '\n' s with
  | big :: half :: _ ->
      Alcotest.(check int) "full width" 10 (count_hashes big);
      Alcotest.(check int) "half width" 5 (count_hashes half)
  | _ -> Alcotest.fail "unexpected chart shape"

let test_chart_scatter () =
  let s =
    Mcd_util.Chart.scatter ~xlabel:"x" ~ylabel:"y"
      ~series:[ ("s1", [ (1.0, 1.0); (2.0, 4.0) ]); ("s2", [ (3.0, 2.0) ]) ]
      ()
  in
  Alcotest.(check bool) "glyphs drawn" true
    (String.contains s 'o' && String.contains s '+');
  Alcotest.(check bool) "legend present" true (String.length s > 100)

let test_chart_scatter_empty () =
  let s =
    Mcd_util.Chart.scatter ~xlabel:"x" ~ylabel:"y" ~series:[ ("s", []) ] ()
  in
  Alcotest.(check string) "empty" "(no data)\n" s

(* --- qcheck properties ---------------------------------------------- *)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let t = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int t bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_histogram_merge_total =
  QCheck.Test.make ~name:"histogram merge adds totals" ~count:200
    QCheck.(pair (list (pair (int_range 0 7) (float_range 0.0 100.0)))
              (list (pair (int_range 0 7) (float_range 0.0 100.0))))
    (fun (xs, ys) ->
      let a = Histogram.create ~bins:8 and b = Histogram.create ~bins:8 in
      List.iter (fun (bin, weight) -> Histogram.add a ~bin ~weight) xs;
      List.iter (fun (bin, weight) -> Histogram.add b ~bin ~weight) ys;
      let ta = Histogram.total a and tb = Histogram.total b in
      Histogram.merge_into ~dst:a ~src:b;
      Float.abs (Histogram.total a -. (ta +. tb)) < 1e-6)

let prop_stats_mean_bounds =
  QCheck.Test.make ~name:"mean within min..max" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let m = Stats.mean xs in
      m >= Stats.minimum xs -. 1e-9 && m <= Stats.maximum xs +. 1e-9)

let prop_vec_roundtrip =
  QCheck.Test.make ~name:"vec of_list/to_list roundtrip" ~count:300
    QCheck.(list int)
    (fun xs -> Vec.to_list (Vec.of_list xs) = xs)

(* --- Agequeue ------------------------------------------------------- *)

let test_agequeue_basic () =
  let q = Agequeue.create ~capacity:3 ~dummy:(-1) in
  Alcotest.(check bool) "empty" true (Agequeue.is_empty q);
  Agequeue.push q 10;
  Agequeue.push q 20;
  Alcotest.(check int) "length" 2 (Agequeue.length q);
  Alcotest.(check int) "oldest first" 10 (Agequeue.get q 0);
  Agequeue.push q 30;
  Alcotest.(check bool) "full" true (Agequeue.is_full q);
  Alcotest.check_raises "push on full"
    (Invalid_argument "Agequeue.push: queue is full") (fun () ->
      Agequeue.push q 40);
  Agequeue.remove q 1;
  Alcotest.(check (list int)) "order kept" [ 10; 30 ] (Agequeue.to_list q);
  Alcotest.check_raises "remove out of bounds"
    (Invalid_argument "Agequeue.remove: index out of bounds") (fun () ->
      Agequeue.remove q 2);
  Agequeue.clear q;
  Alcotest.(check int) "cleared" 0 (Agequeue.length q)

(* The issue loops' shape: walk oldest-first and stay on [i] after a
   removal, so every element is visited once, in age order. *)
let test_agequeue_scan_removes_in_age_order () =
  let q = Agequeue.create ~capacity:8 ~dummy:0 in
  List.iter (Agequeue.push q) [ 1; 2; 3; 4; 5 ];
  let visited = ref [] and i = ref 0 in
  while !i < Agequeue.length q do
    let v = Agequeue.get q !i in
    visited := v :: !visited;
    if v mod 2 = 0 then Agequeue.remove q !i else incr i
  done;
  Alcotest.(check (list int)) "visited every element oldest-first"
    [ 1; 2; 3; 4; 5 ] (List.rev !visited);
  Alcotest.(check (list int)) "survivors" [ 1; 3; 5 ] (Agequeue.to_list q)

(* Differential property: an [Agequeue] driven by random
   dispatch/issue/flush sequences behaves exactly like the immutable
   age-ordered list the pipeline once used, including the order in
   which an effectful issue scan observes entries. *)
let prop_agequeue_matches_list_reference =
  let gen_ops =
    QCheck.Gen.(
      list_size (int_range 0 120)
        (oneof
           [
             map (fun v -> `Dispatch v) (int_range 0 999);
             map (fun m -> `Issue m) (int_range 0 255);
             return `Flush;
           ]))
  in
  let pp_ops ops =
    String.concat ";"
      (List.map
         (function
           | `Dispatch v -> Printf.sprintf "D%d" v
           | `Issue m -> Printf.sprintf "I%d" m
           | `Flush -> "F")
         ops)
  in
  QCheck.Test.make ~name:"agequeue matches the list reference" ~count:300
    (QCheck.make ~print:pp_ops gen_ops)
    (fun ops ->
      let capacity = 6 in
      let q = Agequeue.create ~capacity ~dummy:(-1) in
      let reference = ref [] in
      let seen_q = ref [] and seen_l = ref [] in
      List.iter
        (fun op ->
          match op with
          | `Dispatch v ->
              (* dispatch is gated on occupancy, exactly like the
                 pipeline's [queue_has_space] *)
              let has_space_q = not (Agequeue.is_full q) in
              let has_space_l = List.length !reference < capacity in
              assert (has_space_q = has_space_l);
              if has_space_q then begin
                Agequeue.push q v;
                reference := !reference @ [ v ]
              end
          | `Issue mask ->
              (* an effectful oldest-first scan with an issue budget,
                 like [tick_exec]: keep entries whose low bits miss the
                 mask, issue (remove) at most two others. Entries past
                 a spent budget are neither observed nor changed: the
                 queue's scan stops there, the list filter keeps them. *)
              let issue_one seen budget v =
                if !budget > 0 then begin
                  seen := v :: !seen;
                  if (v land 7) land mask <> 0 then begin
                    decr budget;
                    false
                  end
                  else true
                end
                else true
              in
              let bq = ref 2 and i = ref 0 in
              while !bq > 0 && !i < Agequeue.length q do
                if issue_one seen_q bq (Agequeue.get q !i) then incr i
                else Agequeue.remove q !i
              done;
              let bl = ref 2 in
              reference := List.filter (issue_one seen_l bl) !reference
          | `Flush ->
              Agequeue.clear q;
              reference := [])
        ops;
      Agequeue.to_list q = !reference
      && Agequeue.length q = List.length !reference
      && !seen_q = !seen_l)

(* --- Par ------------------------------------------------------------ *)

let test_par_matches_sequential () =
  let xs = List.init 97 (fun i -> i) in
  let f x = (x * x) + 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        (List.map f xs) (Par.map ~jobs f xs))
    [ 1; 2; 4; 128 ]

let test_par_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Par.map ~jobs:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Par.map ~jobs:4 succ [ 1 ])

let test_par_propagates_exception () =
  Alcotest.check_raises "raises" (Failure "boom") (fun () ->
      ignore
        (Par.map ~jobs:4
           (fun x -> if x = 5 then failwith "boom" else x)
           (List.init 20 Fun.id)))

(* A raising function the runtime cannot inline away, so the worker's
   backtrace has at least one frame to capture. *)
let[@inline never] deep_raise x =
  if x >= 0 then raise Not_found else x

let test_par_preserves_backtrace () =
  (* Regression: worker exceptions were captured without their
     backtrace, so the re-raise on the joining domain reported the join
     site instead of the raise site. The slot now stores the raw
     backtrace and re-raises with it. *)
  let prev = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect
    ~finally:(fun () -> Printexc.record_backtrace prev)
    (fun () ->
      match Par.map ~jobs:4 deep_raise (List.init 20 Fun.id) with
      | _ -> Alcotest.fail "expected the worker exception to propagate"
      | exception Not_found ->
          let bt = Printexc.get_raw_backtrace () in
          Alcotest.(check bool) "re-raised with the worker's backtrace" true
            (Printexc.raw_backtrace_length bt > 0))

let test_par_iter () =
  let hits = Array.make 16 0 in
  Par.iter ~jobs:4 (fun i -> hits.(i) <- hits.(i) + 1) (List.init 16 Fun.id);
  Alcotest.(check (array int)) "each item once" (Array.make 16 1) hits

let prop_par_map_deterministic =
  QCheck.Test.make ~name:"par map is order-preserving at any jobs" ~count:50
    QCheck.(pair (int_range 1 8) (small_list small_int))
    (fun (jobs, xs) -> Par.map ~jobs (fun x -> x * 3) xs = List.map (fun x -> x * 3) xs)

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng split reproducible", `Quick, test_rng_split_reproducible);
    ("rng golden draws", `Quick, test_rng_golden_draws);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng float bounds", `Quick, test_rng_float_bounds);
    ("rng bool bias", `Quick, test_rng_bool_bias);
    ("rng normal moments", `Quick, test_rng_normal_moments);
    ("rng geometric", `Quick, test_rng_geometric);
    ("histogram basic", `Quick, test_histogram_basic);
    ("histogram errors", `Quick, test_histogram_errors);
    ("histogram merge", `Quick, test_histogram_merge);
    ("histogram suffix sum", `Quick, test_histogram_suffix_sum);
    ("histogram copy/fold", `Quick, test_histogram_copy_fold);
    ("stats mean", `Quick, test_stats_mean);
    ("stats geomean", `Quick, test_stats_geomean);
    ("stats min/max", `Quick, test_stats_minmax);
    ("stats stddev", `Quick, test_stats_stddev);
    ("stats percent", `Quick, test_stats_percent);
    ("table render", `Quick, test_table_render);
    ("table pads short rows", `Quick, test_table_pads_short_rows);
    ("table formats", `Quick, test_table_formats);
    ("time conversions", `Quick, test_time_conversions);
    ("time pp", `Quick, test_time_pp);
    ("time now_s monotonic", `Quick, test_time_now_s_monotonic);
    ("chart bars", `Quick, test_chart_bars);
    ("chart bars scaling", `Quick, test_chart_bars_scaling);
    ("chart scatter", `Quick, test_chart_scatter);
    ("chart scatter empty", `Quick, test_chart_scatter_empty);
    ("vec push/get", `Quick, test_vec_push_get);
    ("vec bounds", `Quick, test_vec_bounds);
    ("vec iter/fold", `Quick, test_vec_iter_fold);
    ("agequeue basic", `Quick, test_agequeue_basic);
    ("agequeue filter order", `Quick, test_agequeue_scan_removes_in_age_order);
    ("par matches sequential", `Quick, test_par_matches_sequential);
    ("par empty/singleton", `Quick, test_par_empty_and_singleton);
    ("par propagates exception", `Quick, test_par_propagates_exception);
    ("par preserves backtrace", `Quick, test_par_preserves_backtrace);
    ("par iter", `Quick, test_par_iter);
    qcheck prop_agequeue_matches_list_reference;
    qcheck prop_par_map_deterministic;
    qcheck prop_rng_int_in_bounds;
    qcheck prop_histogram_merge_total;
    qcheck prop_stats_mean_bounds;
    qcheck prop_vec_roundtrip;
  ]
