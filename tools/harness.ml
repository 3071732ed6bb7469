(* The helpers every @verify smoke tool shares: failure accounting,
   temp directories and files, and the forked-daemon life cycle (fork a
   [Server.run], wait until it answers, drain it, reap it) that the
   serve tools drive through the one [Client]. *)

module Server = Mcd_serve.Server
module Client = Mcd_serve.Client
module Protocol = Mcd_serve.Protocol
module Error = Mcd_robust.Error
module Json = Mcd_obs.Json
module Time = Mcd_util.Time

(* The running tool's name ("serve_smoke"), which prefixes its messages. *)
let tool = Filename.remove_extension (Filename.basename Sys.executable_name)

let failures = ref 0

let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        incr failures;
        Printf.eprintf "%s: FAIL %s\n%!" tool msg
      end)
    fmt

(* The last word: "<tool>: OK" and exit 0, or the failure count and
   exit 1. *)
let finish ?(detail = "") () =
  if !failures = 0 then print_endline (tool ^ ": OK" ^ detail)
  else begin
    Printf.eprintf "%s: %d failure(s)\n%!" tool !failures;
    exit 1
  end

(* --- files -------------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* A fresh per-process directory under the temp dir, removed after [f]. *)
let with_temp_dir prefix f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s.%d" prefix (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- forked daemons ------------------------------------------------------ *)

let fork_server ?digest ?compute cfg =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let code =
        match Server.run ?digest ?compute cfg with
        | Ok () -> 0
        | Error e ->
            Printf.eprintf "%s server: %s\n%!" tool (Error.to_string e);
            1
      in
      exit code
  | pid -> pid

(* Poll until the daemon answers a connect; [false] after 30 s. *)
let wait_for_server socket =
  let deadline = Time.now_s () +. 30.0 in
  let rec go () =
    match Client.connect ~socket with
    | Ok c ->
        Client.close c;
        true
    | Error _ ->
        if Time.now_s () > deadline then false
        else begin
          Unix.sleepf 0.05;
          go ()
        end
  in
  go ()

let reap_status pid = snd (Unix.waitpid [] pid)

let reap ~what pid =
  match reap_status pid with
  | Unix.WEXITED code -> check (code = 0) "%s exited with code %d" what code
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      check false "%s killed/stopped by signal %d" what s

let drain_and_reap ~what socket pid =
  (match Client.connect ~socket with
  | Ok c ->
      (match Client.drain c with
      | Ok () -> ()
      | Error e -> check false "drain %s: %s" what (Error.to_string e));
      Client.close c
  | Error e -> check false "connect to drain %s: %s" what (Error.to_string e));
  reap ~what pid

(* One instrument's value in a [stats] body (metrics JSON lines);
   counters and gauges both read as floats. *)
let metric_value body name =
  String.split_on_char '\n' body
  |> List.find_map (fun line ->
         match Json.of_string line with
         | Ok j
           when Option.bind (Json.member "name" j) Json.to_string_opt
                = Some name ->
             Option.bind (Json.member "value" j) Json.to_float_opt
         | _ -> None)

(* One metric over a fresh connection; 0 (and a failure) when the
   daemon cannot be asked. *)
let server_stat socket name =
  match Client.connect ~socket with
  | Error e ->
      check false "stats connect: %s" (Error.to_string e);
      0.0
  | Ok c ->
      let v =
        match Client.stats c with
        | Ok body -> Option.value ~default:0.0 (metric_value body name)
        | Error e ->
            check false "stats: %s" (Error.to_string e);
            0.0
      in
      Client.close c;
      v

(* A canned service for daemons that should not simulate: a request's
   identity is its workload and slowdown, its payload a short string
   derived from both. *)
let canned_digest (r : Protocol.request) =
  Ok
    (Printf.sprintf "canned-%s-%s" r.workload
       (Mcd_cache.Key.float_param r.slowdown_pct))

let canned_payload (r : Protocol.request) =
  Printf.sprintf "payload-%s-%s" r.workload
    (Mcd_cache.Key.float_param r.slowdown_pct)

(* The one-shot Runner payload a served request must reproduce byte for
   byte, computed with the result store off so the comparison is
   against an independent computation. *)
let one_shot policy workload =
  let store = Mcd_cache.Store.default () in
  Mcd_cache.Store.set_default None;
  Fun.protect ~finally:(fun () -> Mcd_cache.Store.set_default store)
  @@ fun () ->
  let w = Mcd_workloads.Suite.by_name workload in
  Mcd_power.Metrics.encode
    (Mcd_experiments.Runner.policy_run
       (Option.get (Mcd_experiments.Runner.policy_of_name policy w))
       w)
