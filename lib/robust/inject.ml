module Rng = Mcd_util.Rng
module Domain = Mcd_domains.Domain
module Freq = Mcd_domains.Freq
module Dvfs = Mcd_domains.Dvfs
module Controller = Mcd_cpu.Controller

type file_fault =
  | Truncate
  | Bit_flip
  | Mutate_frequency
  | Stale_fingerprint
  | Drop_lines

type runtime_fault = Stuck_domain | Lost_writes | Frozen_slew

type fault = File of file_fault | Runtime of runtime_fault

let all =
  [
    File Truncate;
    File Bit_flip;
    File Mutate_frequency;
    File Stale_fingerprint;
    File Drop_lines;
    Runtime Stuck_domain;
    Runtime Lost_writes;
    Runtime Frozen_slew;
  ]

let name = function
  | File Truncate -> "truncate"
  | File Bit_flip -> "bit-flip"
  | File Mutate_frequency -> "mutate-frequency"
  | File Stale_fingerprint -> "stale-fingerprint"
  | File Drop_lines -> "drop-lines"
  | Runtime Stuck_domain -> "stuck-domain"
  | Runtime Lost_writes -> "lost-writes"
  | Runtime Frozen_slew -> "frozen-slew"

let names = List.map name all
let of_name s = List.find_opt (fun f -> name f = s) all

(* --- artifact corruption --------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let bit_flip ~rng s =
  if String.length s = 0 then s
  else begin
    let b = Bytes.of_string s in
    let i = Rng.int rng (Bytes.length b) in
    let bit = Rng.int rng 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
    Bytes.to_string b
  end

(* Lines of the file body, excluding a trailing empty fragment. *)
let lines_of s =
  match List.rev (String.split_on_char '\n' s) with
  | "" :: rest -> List.rev rest
  | all -> List.rev all

let unlines ls = String.concat "\n" ls ^ "\n"

(* Corrupt values a frequency field can be rewritten to: out of range
   (which validation must refuse) and in-range but off the legal grid
   (which validation must snap with a diagnostic). *)
let corrupt_frequencies = [| 0; -17; 999999; 313; 1; 421 |]

let mutate_frequency ~rng lines =
  let is_setting l =
    String.length l > 5
    && (String.sub l 0 5 = "node " || String.sub l 0 5 = "unit ")
  in
  let candidates = List.filteri (fun _ l -> is_setting l) lines in
  match candidates with
  | [] -> None
  | _ ->
      let victim = Rng.int rng (List.length candidates) in
      let seen = ref (-1) in
      Some
        (List.map
           (fun l ->
             if is_setting l then begin
               incr seen;
               if !seen = victim then begin
                 match String.rindex_opt l ' ' with
                 | None -> l
                 | Some sp ->
                     let prefix = String.sub l 0 (sp + 1) in
                     let fields =
                       String.split_on_char ','
                         (String.sub l (sp + 1) (String.length l - sp - 1))
                     in
                     let k = Rng.int rng (List.length fields) in
                     let bad =
                       corrupt_frequencies.(Rng.int rng
                                              (Array.length corrupt_frequencies))
                     in
                     prefix
                     ^ String.concat ","
                         (List.mapi
                            (fun i f -> if i = k then string_of_int bad else f)
                            fields)
               end
               else l
             end
             else l)
           lines)

let stale_fingerprint ~rng lines =
  let fresh =
    String.init 16 (fun _ -> "0123456789abcdef".[Rng.int rng 16])
  in
  let hit = ref false in
  let lines =
    List.map
      (fun l ->
        if String.length l > 5 && String.sub l 0 5 = "tree " then begin
          hit := true;
          "tree " ^ fresh
        end
        else l)
      lines
  in
  if !hit then Some lines else None

let drop_lines ~rng lines =
  match lines with
  | [] | [ _ ] -> None
  | header :: body ->
      let n = List.length body in
      let drops = 1 + Rng.int rng (min 3 n) in
      let victims =
        List.init drops (fun _ -> Rng.int rng n) |> List.sort_uniq compare
      in
      Some (header :: List.filteri (fun i _ -> not (List.mem i victims)) body)

let corrupt_file fault ~rng ~path =
  let original = read_file path in
  let corrupted =
    match fault with
    | Truncate ->
        let len = String.length original in
        let keep = (len / 4) + Rng.int rng (max 1 (len / 2)) in
        String.sub original 0 (min keep len)
    | Bit_flip -> bit_flip ~rng original
    | Mutate_frequency -> (
        match mutate_frequency ~rng (lines_of original) with
        | Some lines -> unlines lines
        | None -> bit_flip ~rng original)
    | Stale_fingerprint -> (
        match stale_fingerprint ~rng (lines_of original) with
        | Some lines -> unlines lines
        | None -> bit_flip ~rng original)
    | Drop_lines -> (
        match drop_lines ~rng (lines_of original) with
        | Some lines -> unlines lines
        | None -> bit_flip ~rng original)
  in
  let corrupted =
    if corrupted = original then bit_flip ~rng original else corrupted
  in
  write_file path corrupted

(* --- runtime faults --------------------------------------------------- *)

let dvfs_faults fault ~rng =
  match fault with
  | Stuck_domain ->
      let domain = Domain.of_index (Rng.int rng Domain.count) in
      let mhz = Freq.steps.(Rng.int rng Freq.num_steps) in
      [ Dvfs.Stuck_at (domain, mhz) ]
  | Frozen_slew ->
      [ Dvfs.Frozen_slew (Domain.of_index (Rng.int rng Domain.count)) ]
  | Lost_writes -> []

(* --- daemon crash mechanisms ------------------------------------------ *)

(* A worker crash is modelled as whole-process death, not an exception:
   a raising compute would fail the job *terminally* (answered typed,
   journal record written), whereas a killed process leaves the job
   incomplete in the journal — exactly the case replay exists for. Exit
   code 9 mirrors the SIGKILL the chaos harness also delivers. *)
let crash_compute ?(after_s = 0.0) () _req =
  if after_s > 0.0 then Unix.sleepf after_s;
  Unix._exit 9

(* A crash mid-append leaves a prefix of the record on disk; tearing
   cuts a random short tail so recovery must classify it as torn (good
   prefix kept, no typed corruption). *)
let tear_file ~rng ~path =
  let original = read_file path in
  let len = String.length original in
  if len > 0 then begin
    let cut = 1 + Rng.int rng (min 80 len) in
    write_file path (String.sub original 0 (len - cut))
  end

let lost_write_probability = 0.5

let harness fault ~rng inner =
  match fault with
  | Stuck_domain | Frozen_slew -> inner
  | Lost_writes ->
      let drop set =
        match set with
        | Some _ when Rng.bool rng lost_write_probability -> None
        | other -> other
      in
      {
        Controller.name = inner.Controller.name ^ "+lost-writes";
        on_marker =
          (fun m ~now ->
            let r = inner.Controller.on_marker m ~now in
            { r with Controller.set = drop r.Controller.set });
        on_sample = (fun s ~now -> drop (inner.Controller.on_sample s ~now));
        sample_interval_cycles = inner.Controller.sample_interval_cycles;
      }
