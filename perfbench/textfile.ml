(* Whole-file text I/O for the references, outputs and spans. *)

let read dir name =
  let path = Filename.concat dir name in
  if not (Sys.file_exists path) then None
  else
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let n = String.length s in
    Some (if n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s)

let write dir name contents =
  let oc = open_out_bin (Filename.concat dir name) in
  output_string oc contents;
  output_char oc '\n';
  close_out oc
