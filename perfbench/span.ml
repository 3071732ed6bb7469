(* Spans and counters recorded from the benchmark's own calls into each
   layer's public functions. Off by default: a disabled [with_] is one
   branch and a direct call, so untraced runs time the program alone.

   A span records a name, an optional request id (the cache digest of a
   served request), its start and end on the monotonic clock, and the
   span open on the same domain when it started (its parent). Spans are
   kept in memory and written out once, at the end of the run. The
   served workload records spans from the server's worker domain and
   its event loop at once, so the shared buffers sit behind a mutex and
   the open-span stack is domain-local. *)

let now_ns () = Monotonic_clock.now ()
let now_s () = Int64.to_float (now_ns ()) /. 1e9

type t = {
  idx : int;
  name : string;
  id : string;
  start_ns : int64;
  stop_ns : int64;
  parent : int;
}

let enabled = ref false
let lock = Mutex.create ()
let next = ref 0
let finished : t list ref = ref []
let counters : (string, float) Hashtbl.t = Hashtbl.create 32
let stack : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let with_ ?(id = "") name f =
  if not !enabled then f ()
  else begin
    let idx =
      locked (fun () ->
          let i = !next in
          incr next;
          i)
    in
    let outer = Domain.DLS.get stack in
    let parent = match outer with p :: _ -> p | [] -> -1 in
    Domain.DLS.set stack (idx :: outer);
    let start_ns = now_ns () in
    let close () =
      let stop_ns = now_ns () in
      Domain.DLS.set stack outer;
      locked (fun () ->
          finished := { idx; name; id; start_ns; stop_ns; parent } :: !finished)
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* A span whose id is known only once it ends (a served request's
   digest), recorded under the span open on this domain. *)
let record ~id name ~start_ns =
  if !enabled then begin
    let stop_ns = now_ns () in
    let parent = match Domain.DLS.get stack with p :: _ -> p | [] -> -1 in
    locked (fun () ->
        let idx = !next in
        incr next;
        finished := { idx; name; id; start_ns; stop_ns; parent } :: !finished)
  end

let count name v =
  if !enabled then
    locked (fun () ->
        let old = Option.value ~default:0.0 (Hashtbl.find_opt counters name) in
        Hashtbl.replace counters name (old +. v))

let reset () =
  finished := [];
  Hashtbl.reset counters

let counter name = Option.value ~default:0.0 (Hashtbl.find_opt counters name)
let spans () = List.rev !finished
let seconds s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e9

(* Total seconds spent in spans of [name]. *)
let total name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. seconds s else acc)
    0.0 !finished

(* A span's duration minus the part of it its direct children cover.
   Children can overlap (requests in flight on pipelined connections),
   so the covered part is the union of their intervals. *)
let self_seconds name =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    !finished;
  let covered kids =
    let sorted = List.sort (fun a b -> compare a.start_ns b.start_ns) kids in
    let total, _ =
      List.fold_left
        (fun (total, reach) k ->
          let start = if Int64.compare k.start_ns reach > 0 then k.start_ns else reach in
          if Int64.compare k.stop_ns start > 0 then
            (Int64.add total (Int64.sub k.stop_ns start), k.stop_ns)
          else (total, reach))
        (0L, Int64.min_int) sorted
    in
    Int64.to_float total /. 1e9
  in
  List.fold_left
    (fun acc s ->
      if s.name = name then
        acc +. seconds s
        -. covered (Option.value ~default:[] (Hashtbl.find_opt children s.idx))
      else acc)
    0.0 !finished

let to_jsonl spans =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Mcd_obs.Json.to_string
           (Mcd_obs.Json.Obj
              [
                ("idx", Mcd_obs.Json.Int s.idx);
                ("name", Mcd_obs.Json.String s.name);
                ("id", Mcd_obs.Json.String s.id);
                ("start_ns", Mcd_obs.Json.String (Int64.to_string s.start_ns));
                ("end_ns", Mcd_obs.Json.String (Int64.to_string s.stop_ns));
                ("parent", Mcd_obs.Json.Int s.parent);
              ]));
      Buffer.add_char buf '\n')
    spans;
  Buffer.contents buf

let of_jsonl text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match Mcd_obs.Json.of_string line with
         | Error _ -> None
         | Ok j ->
             let str k = Option.bind (Mcd_obs.Json.member k j) Mcd_obs.Json.to_string_opt in
             let int k = Option.bind (Mcd_obs.Json.member k j) Mcd_obs.Json.to_int_opt in
             (match (int "idx", str "name", str "id", str "start_ns", str "end_ns", int "parent") with
             | Some idx, Some name, Some id, Some a, Some b, Some parent ->
                 Some
                   {
                     idx;
                     name;
                     id;
                     start_ns = Int64.of_string a;
                     stop_ns = Int64.of_string b;
                     parent;
                   }
             | _ -> None))
