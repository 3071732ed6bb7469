let bars ?(width = 40) ~groups () =
  let max_abs =
    List.fold_left
      (fun acc (_, series) ->
        List.fold_left (fun acc (_, v) -> Float.max acc (Float.abs v)) acc
          series)
      1e-9 groups
  in
  let label_width =
    List.fold_left
      (fun acc (g, _) -> max acc (String.length g))
      0 groups
  in
  let series_width =
    List.fold_left
      (fun acc (_, series) ->
        List.fold_left (fun acc (s, _) -> max acc (String.length s)) acc series)
      0 groups
  in
  let pad s n =
    if String.length s >= n then s else s ^ String.make (n - String.length s) ' '
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (group, series) ->
      List.iteri
        (fun i (name, v) ->
          let cells =
            int_of_float
              (Float.round (Float.abs v /. max_abs *. float_of_int width))
          in
          let fill = if v >= 0.0 then "#" else "-" in
          Buffer.add_string buf
            (pad (if i = 0 then group else "") label_width);
          Buffer.add_string buf "  ";
          Buffer.add_string buf (pad name series_width);
          Buffer.add_string buf " |";
          for _ = 1 to cells do
            Buffer.add_string buf fill
          done;
          Buffer.add_string buf
            (Printf.sprintf "%s %.1f%%\n"
               (String.make (max 0 (width - cells)) ' ')
               v))
        series;
      Buffer.add_char buf '\n')
    groups;
  Buffer.contents buf

let height = 20

let scatter ?(width = 64) ~xlabel ~ylabel ~series () =
  let all = List.concat_map snd series in
  match all with
  | [] -> "(no data)\n"
  | _ ->
      let xs = List.map fst all and ys = List.map snd all in
      let fmin l = List.fold_left Float.min (List.hd l) l in
      let fmax l = List.fold_left Float.max (List.hd l) l in
      let x0 = Float.min 0.0 (fmin xs) and x1 = Float.max 1e-9 (fmax xs) in
      let y0 = Float.min 0.0 (fmin ys) and y1 = Float.max 1e-9 (fmax ys) in
      let grid = Array.make_matrix height width ' ' in
      let glyphs = [| 'o'; '+'; 'x'; '*'; '@' |] in
      List.iteri
        (fun si (_, points) ->
          let glyph = glyphs.(si mod Array.length glyphs) in
          List.iter
            (fun (x, y) ->
              let col =
                int_of_float
                  ((x -. x0) /. (x1 -. x0) *. float_of_int (width - 1))
              in
              let row =
                height - 1
                - int_of_float
                    ((y -. y0) /. (y1 -. y0) *. float_of_int (height - 1))
              in
              if row >= 0 && row < height && col >= 0 && col < width then
                grid.(row).(col) <- glyph)
            points)
        series;
      let buf = Buffer.create 2048 in
      Buffer.add_string buf
        (Printf.sprintf "%s (vertical %.1f..%.1f, horizontal %.1f..%.1f %s)\n"
           ylabel y0 y1 x0 x1 xlabel);
      Array.iter
        (fun row ->
          Buffer.add_char buf '|';
          Array.iter (Buffer.add_char buf) row;
          Buffer.add_char buf '\n')
        grid;
      Buffer.add_char buf '+';
      Buffer.add_string buf (String.make width '-');
      Buffer.add_char buf '\n';
      List.iteri
        (fun si (name, _) ->
          Buffer.add_string buf
            (Printf.sprintf "  %c = %s\n" glyphs.(si mod Array.length glyphs)
               name))
        series;
      Buffer.contents buf
