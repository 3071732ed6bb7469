(* What one workload run hands back: operations attempted and failed,
   the operations' throughput, the bytes a traced run must reproduce,
   and the metrics measured. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable ops : int;  (** operations timed in the measured phase *)
  mutable measured_s : float;  (** host seconds of the measured phase *)
  mutable ops_per_s : float option;
      (** when set, the throughput; otherwise [ops] over [measured_s] *)
  mutable setup_s : float;
  mutable peak_rss_mb : float option;  (** when set, another process's *)
  outputs : Buffer.t;
  mutable notes : string list;
  mutable layers : (string * float) list;  (** per-layer metrics *)
}

let create () =
  {
    attempted = 0;
    failed = 0;
    ops = 0;
    measured_s = 0.0;
    ops_per_s = None;
    setup_s = 0.0;
    peak_rss_mb = None;
    outputs = Buffer.create 4096;
    notes = [];
    layers = [];
  }

let note r fmt = Printf.ksprintf (fun s -> r.notes <- s :: r.notes) fmt

let fail r fmt =
  Printf.ksprintf
    (fun s ->
      r.failed <- r.failed + 1;
      r.notes <- ("FAILED: " ^ s) :: r.notes)
    fmt

(* [n] operations of the measured phase. *)
let count_ops r n =
  r.attempted <- r.attempted + n;
  r.ops <- r.ops + n

let output r fmt = Printf.ksprintf (Buffer.add_string r.outputs) fmt

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    sorted.(max 0
              (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  percentile a 0.5

(* Peak resident set of a process (VmHWM), in MiB. *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                (fun kb -> float_of_int kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* CPU seconds (user and system, all threads) a process has used, from
   /proc/PID/stat, whose times count USER_HZ ticks: 100 a second on
   Linux. *)
let cpu_seconds pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> nan
  | ic ->
      let line = input_line ic in
      close_in ic;
      (* the fields after the parenthesised command name start at the
         third, the state; utime and stime are the 14th and 15th *)
      let from = String.rindex line ')' + 2 in
      let fields =
        Array.of_list
          (String.split_on_char ' ' (String.sub line from (String.length line - from)))
      in
      (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.0

(* With --setup-only a run stops after set-up: run.py spawns a few such
   processes and reports the median of their set-up times and the full
   run's. *)
let setup_only = ref false

exception Setup_done of float

(* Set-up, timed from process start. A set-up-only run calls [stop] on
   what set-up made (a running server) before it stops. *)
let setup ?(stop = ignore) ~process_start f =
  let v = f () in
  let s = Span.now_s () -. process_start in
  if !setup_only then begin
    stop v;
    raise (Setup_done s)
  end;
  (v, s)

(* The store counters of a run's stores, summed. *)
let store_stats stores =
  let sum f =
    float_of_int
      (List.fold_left (fun acc s -> acc + f (Mcd_cache.Store.stats s)) 0 stores)
  in
  [
    ("cache.hits", sum (fun s -> s.Mcd_cache.Store.hits));
    ("cache.misses", sum (fun s -> s.Mcd_cache.Store.misses));
    ("cache.bytes_read", sum (fun s -> s.Mcd_cache.Store.bytes_read));
    ("cache.bytes_written", sum (fun s -> s.Mcd_cache.Store.bytes_written));
  ]

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* A fresh, empty result store under [dir], made the process default. *)
let fresh_store dir =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let store = Mcd_cache.Store.create ~dir in
  Mcd_cache.Store.set_default (Some store);
  Mcd_experiments.Runner.clear_caches ();
  store
