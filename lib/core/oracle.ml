module Interval_collector = Mcd_trace.Interval_collector
module Pipeline = Mcd_cpu.Pipeline
module Config = Mcd_cpu.Config
module Controller = Mcd_cpu.Controller
module Histogram = Mcd_util.Histogram
module Vec = Mcd_util.Vec
module Reconfig = Mcd_domains.Reconfig

type interval_data = {
  histograms : Histogram.t array option; (* None: too little data *)
  paths : Path_model.t;
  duration_ps : float;
}

type analysis = { interval_insts : int; intervals : interval_data array }

type schedule = { interval_insts : int; settings : Reconfig.setting array }

let default_interval_insts = 10_000

(* Canonical codec for cached analyses. Same conventions as Plan_io /
   Metrics: line-based, floats in lossless %h form, `end` trailer so a
   truncated payload is detected. List orders (segments, signatures) are
   preserved exactly so decode (encode a) rebuilds a bit for bit. *)
let encode_analysis (a : analysis) =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let floats arr =
    String.concat ","
      (List.map (Printf.sprintf "%h") (Array.to_list arr))
  in
  add "oracle-analysis 1\n";
  add "interval_insts %d\n" a.interval_insts;
  add "intervals %d\n" (Array.length a.intervals);
  Array.iter
    (fun iv ->
      add "interval %h\n" iv.duration_ps;
      (match iv.histograms with
      | None -> add "hists none\n"
      | Some hs ->
          add "hists %d\n" (Array.length hs);
          Array.iter
            (fun h ->
              let ws =
                List.rev
                  (Histogram.fold h ~init:[] ~f:(fun acc ~bin:_ ~weight ->
                       weight :: acc))
              in
              add "hist %d %s\n" (Histogram.bins h)
                (String.concat "," (List.map (Printf.sprintf "%h") ws)))
            hs);
      add "paths %d\n" (List.length iv.paths.Path_model.segments);
      List.iter
        (fun (seg : Path_model.segment) ->
          add "seg %h %d\n" seg.base_ps (List.length seg.signatures);
          List.iter (fun s -> add "sig %s\n" (floats s)) seg.signatures)
        iv.paths.Path_model.segments)
    a.intervals;
  add "end\n";
  Buffer.contents buf

exception Corrupt of string

let decode_analysis s =
  let fail fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt in
  let lines = String.split_on_char '\n' s in
  let lines =
    Array.of_list
      (match List.rev lines with "" :: rest -> List.rev rest | _ -> lines)
  in
  let pos = ref 0 in
  let next () =
    if !pos >= Array.length lines then fail "truncated oracle payload"
    else begin
      let l = lines.(!pos) in
      incr pos;
      l
    end
  in
  let int what v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> fail "bad %s %S" what v
  in
  let float what v =
    match float_of_string_opt v with
    | Some f -> f
    | None -> fail "bad %s %S" what v
  in
  let float_list what v =
    List.map (float what) (String.split_on_char ',' v)
  in
  let field name =
    let l = next () in
    match String.index_opt l ' ' with
    | Some i when String.sub l 0 i = name ->
        String.sub l (i + 1) (String.length l - i - 1)
    | _ -> fail "expected %S line, got %S" name l
  in
  try
    let header = next () in
    if header <> "oracle-analysis 1" then
      fail "bad oracle header %S" header;
    let interval_insts = int "interval_insts" (field "interval_insts") in
    let n_intervals = int "interval count" (field "intervals") in
    let intervals =
      Array.init n_intervals (fun _ ->
          let duration_ps = float "duration" (field "interval") in
          let histograms =
            match field "hists" with
            | "none" -> None
            | n ->
                let n = int "histogram count" n in
                Some
                  (Array.init n (fun _ ->
                       match String.split_on_char ' ' (field "hist") with
                       | [ bins; ws ] ->
                           let bins = int "histogram bins" bins in
                           let ws = float_list "histogram weight" ws in
                           if List.length ws <> bins then
                             fail "histogram bin count mismatch";
                           let h = Histogram.create ~bins in
                           List.iteri
                             (fun bin weight -> Histogram.add h ~bin ~weight)
                             ws;
                           h
                       | _ -> fail "malformed hist line"))
          in
          let n_segs = int "segment count" (field "paths") in
          let segments =
            List.init n_segs (fun _ ->
                match String.split_on_char ' ' (field "seg") with
                | [ base; n_sigs ] ->
                    let base_ps = float "segment base" base in
                    let n_sigs = int "signature count" n_sigs in
                    let signatures =
                      List.init n_sigs (fun _ ->
                          Array.of_list
                            (float_list "signature" (field "sig")))
                    in
                    { Path_model.base_ps; signatures }
                | _ -> fail "malformed seg line")
          in
          { duration_ps; histograms; paths = { Path_model.segments } })
    in
    let trailer = next () in
    if trailer <> "end" then fail "missing end-of-analysis marker";
    if !pos <> Array.length lines then fail "content after end marker";
    Result.Ok ({ interval_insts; intervals } : analysis)
  with
  | Corrupt m -> Result.Error m
  (* Histogram.create/add validate bins and weights; a corrupted payload
     can trip those checks before ours. *)
  | Invalid_argument m -> Result.Error m

let analyze ~program ~input ?(interval_insts = 10_000)
    ?(trace_insts = 120_000) ?(config = Config.alpha21264_like) () =
  (* each interval is shaken as soon as its last instruction retires,
     so the trace run holds about one interval's events at a time *)
  let intervals = Vec.create () in
  let analyze_interval events =
    Vec.push intervals
      (match Analyze.shake ~config events with
      | None ->
          { histograms = None; paths = Path_model.empty; duration_ps = 0.0 }
      | Some { Analyze.result; paths; duration_ps } ->
          {
            histograms = Some result.Shaker.histograms;
            paths = Path_model.add_segment Path_model.empty paths;
            duration_ps;
          })
  in
  let collector =
    Interval_collector.create ~interval_insts ~on_interval:analyze_interval ()
  in
  let _ =
    Pipeline.run
      ~probe:(Interval_collector.probe collector)
      ~config ~program ~input ~max_insts:trace_insts ()
  in
  Interval_collector.finish collector;
  { interval_insts; intervals = Vec.to_array intervals }

let schedule_of (a : analysis) ~slowdown_pct =
  let entries =
    List.map
      (fun iv ->
        let setting =
          match iv.histograms with
          | None -> Reconfig.full_speed ()
          | Some hists -> Plan.decide ~slowdown_pct hists iv.paths
        in
        (setting, iv.duration_ps, iv.duration_ps > 0.0))
      (Array.to_list a.intervals)
  in
  {
    interval_insts = a.interval_insts;
    settings = Array.of_list (Plan.clamp_swings entries);
  }

let policy schedule =
  let current = ref (-1) in
  let on_sample (s : Controller.sample) ~now:_ =
    let n = Array.length schedule.settings in
    if n = 0 then None
    else begin
      let idx =
        min (n - 1) (s.Controller.total_retired / schedule.interval_insts)
      in
      if idx <> !current then begin
        current := idx;
        Some schedule.settings.(idx)
      end
      else None
    end
  in
  {
    Controller.name = "off-line (interval oracle)";
    on_marker = (fun _ ~now:_ -> Controller.no_reaction);
    on_sample;
    sample_interval_cycles = 1_000;
  }
