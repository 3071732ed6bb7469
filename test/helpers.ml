(* Helpers shared by the test modules. *)

(* The CLI binary, resolved relative to the test executable, not the
   cwd, so the suite passes under `dune runtest` and when run by hand. *)
let cli_exe =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) Filename.parent_dir_name)
    (Filename.concat "bin" "mcd_dvfs_cli.exe")

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let store_count = ref 0

(* [f] on a result store in a fresh temp directory, removed afterwards. *)
let with_temp_store f =
  incr store_count;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcd-test-store.%d.%d" (Unix.getpid ()) !store_count)
  in
  rm_rf dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () -> f (Mcd_cache.Store.create ~dir))

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  nl = 0 || go 0
