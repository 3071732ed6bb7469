(* Documentation guard for the command-line surface: the top-level help
   must name every subcommand, and the exit-status table — the single
   authoritative copy — must document every code the tool can return
   (0 success, 1 campaign failure, 2 validation, 3 I/O, 4 overload). *)

let cli_exe = Helpers.cli_exe

let run_help args =
  let cmd =
    Filename.quote_command cli_exe (args @ [ "--help=plain" ])
    ^ " 2>/dev/null"
  in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "%s --help failed" (String.concat " " args));
  Buffer.contents buf


let subcommands =
  [
    "suite"; "run"; "tree"; "plan"; "compare"; "trace"; "cache"; "robustness";
    "tournament"; "campaign"; "serve"; "submit"; "status"; "drain";
  ]

let test_help_names_every_subcommand () =
  let help = run_help [] in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("help mentions " ^ sub) true
        (Helpers.contains ~needle:sub help))
    subcommands

(* The lines of the EXIT STATUS section whose first word is [code]:
   each documented code must own exactly one entry. *)
let exit_entries help code =
  let lines = String.split_on_char '\n' help in
  let rec section = function
    | [] -> []
    | l :: rest when String.trim l = "EXIT STATUS" -> body rest
    | _ :: rest -> section rest
  and body = function
    | l :: rest when l = "" || l.[0] = ' ' -> l :: body rest
    | _ -> []
  in
  let prefix = string_of_int code ^ " " in
  List.filter
    (fun l -> String.starts_with ~prefix (String.trim l))
    (section lines)

let test_exit_codes_documented_once () =
  let help = run_help [] in
  Alcotest.(check bool) "has EXIT STATUS section" true
    (Helpers.contains ~needle:"EXIT STATUS" help);
  List.iter
    (fun (code, hint) ->
      match exit_entries help code with
      | [ entry ] ->
          Alcotest.(check bool)
            (Printf.sprintf "exit %d names its meaning" code)
            true
            (Helpers.contains ~needle:hint entry)
      | entries ->
          Alcotest.failf "exit %d has %d entries, expected one" code
            (List.length entries))
    [
      (0, "success");
      (1, "campaign");
      (2, "validation");
      (3, "I/O");
      (4, "overloaded");
      (123, "errors");
      (124, "parsing");
      (125, "internal");
    ];
  (* subcommands inherit the same table rather than redefining it: a
     subcommand's help shows the identical overload wording *)
  let sub_help = run_help [ "submit" ] in
  Alcotest.(check bool) "subcommand inherits the table" true
    (Helpers.contains ~needle:"overloaded" sub_help)

let test_serve_help_documents_protocol_knobs () =
  let help = run_help [ "serve" ] in
  List.iter
    (fun flag ->
      Alcotest.(check bool) ("serve documents " ^ flag) true
        (Helpers.contains ~needle:flag help))
    [
      "--workers"; "--queue-max"; "--client-max"; "--socket";
      "--no-journal"; "--deadline-ms"; "--retry-after-cap-ms";
      "--conn-inflight-max"; "--outbuf-max-bytes";
    ]

(* A daemon that hangs up is an I/O failure (exit 3), never a death by
   SIGPIPE (exit 141 in a shell). The scripted daemon greets, reads the
   submit, shuts down its receiving side and only then answers queued,
   so the CLI's next command (the wait) goes to a peer that can no
   longer receive: EPIPE every time. *)
let test_submit_exits_3_when_daemon_hangs_up () =
  let module Protocol = Mcd_serve.Protocol in
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcd-cli-hangup-%d.sock" (Unix.getpid ()))
  in
  (try Sys.remove socket with Sys_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close listen_fd;
      try Sys.remove socket with Sys_error _ -> ())
  @@ fun () ->
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd 1;
  (* The CLI must start with SIGPIPE at its default disposition: an
     ignored signal is inherited, and an earlier test may ignore it. *)
  let pid =
    let previous = Sys.signal Sys.sigpipe Sys.Signal_default in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    Fun.protect
      ~finally:(fun () ->
        Sys.set_signal Sys.sigpipe previous;
        Unix.close devnull)
      (fun () ->
        Unix.create_process cli_exe
          [| cli_exe; "submit"; "--socket"; socket; "adpcm decode" |]
          devnull devnull devnull)
  in
  let status () = snd (Unix.waitpid [] pid) in
  (match Unix.select [ listen_fd ] [] [] 30.0 with
  | [], _, _ ->
      ignore (status ());
      Alcotest.fail "the CLI never connected"
  | _ -> ());
  let fd, _ = Unix.accept listen_fd in
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  let send ?seq reply =
    output_string oc (Protocol.render_reply ?seq reply ^ "\n");
    flush oc
  in
  send
    (Protocol.Ready { version = Protocol.version; workers = 1; queue_max = 8 });
  let seq =
    match Protocol.parse_command (input_line ic) with
    | Ok (Protocol.Submit _, seq) -> seq
    | _ -> Alcotest.fail "the CLI did not open with a submit"
  in
  Unix.shutdown fd Unix.SHUTDOWN_RECEIVE;
  send ?seq (Protocol.Queued_reply { id = 1; digest = "d"; coalesced = false });
  let status = status () in
  Unix.close fd;
  match status with
  | Unix.WEXITED 3 -> ()
  | Unix.WEXITED code -> Alcotest.failf "submit exited %d, want 3" code
  | Unix.WSIGNALED s when s = Sys.sigpipe ->
      Alcotest.fail "submit died by SIGPIPE (exit 141 in a shell), want exit 3"
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      Alcotest.failf "submit killed by signal %d, want exit 3" s

(* Run the CLI with [args]; returns its exit status and its stderr. *)
let run_cli args =
  let err = Filename.temp_file "mcd-cli" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove err) @@ fun () ->
  let code =
    Sys.command
      (Filename.quote_command cli_exe args ~stdout:"/dev/null" ~stderr:err)
  in
  (code, In_channel.with_open_bin err In_channel.input_all)

(* [run] and [trace] resolve policies through one lookup: any registry
   label traces, and an unknown name lists every label the tool
   accepts. *)
let test_trace_any_policy () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcd-cli-trace.%d" (Unix.getpid ()))
  in
  Helpers.rm_rf dir;
  Fun.protect ~finally:(fun () -> Helpers.rm_rf dir) @@ fun () ->
  let code, err =
    run_cli [ "trace"; "adpcm decode"; "--policy"; "pid"; "--out"; dir ]
  in
  Alcotest.(check int) ("trace --policy pid exits 0: " ^ err) 0 code;
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " written") true
        (Sys.file_exists (Filename.concat dir f)))
    [ "metrics.jsonl"; "series.csv"; "trace.json" ]

let test_run_unknown_policy_lists_labels () =
  let code, err = run_cli [ "run"; "adpcm decode"; "--policy"; "nope" ] in
  Alcotest.(check bool) "rejected" true (code <> 0);
  List.iter
    (fun l ->
      Alcotest.(check bool) ("error lists " ^ l) true
        (Helpers.contains ~needle:l err))
    (Mcd_control.Policies.names () @ [ "offline"; "profile"; "global" ])

(* The robustness campaign injects the eight pipeline fault classes and
   nothing else: any other name, such as the daemon crash the chaos
   harness drives, is a usage error that lists the real classes. *)
let test_robustness_rejects_unknown_fault () =
  let code, err = run_cli [ "robustness"; "--fault"; "worker-crash" ] in
  Alcotest.(check int) ("robustness --fault worker-crash exits 124: " ^ err)
    124 code;
  Alcotest.(check int) "eight fault classes" 8
    (List.length Mcd_robust.Inject.names);
  List.iter
    (fun name ->
      Alcotest.(check bool) ("error lists " ^ name) true
        (Helpers.contains ~needle:name err))
    Mcd_robust.Inject.names

let suite =
  [
    ("help names every subcommand", `Quick, test_help_names_every_subcommand);
    ("exit codes documented", `Quick, test_exit_codes_documented_once);
    ("serve help documents knobs", `Quick, test_serve_help_documents_protocol_knobs);
    ( "submit exits 3 when the daemon hangs up",
      `Quick,
      test_submit_exits_3_when_daemon_hangs_up );
    ("trace accepts any policy", `Slow, test_trace_any_policy);
    ( "run lists every policy label",
      `Quick,
      test_run_unknown_policy_lists_labels );
    ( "robustness rejects unknown fault",
      `Quick,
      test_robustness_rejects_unknown_fault );
  ]
