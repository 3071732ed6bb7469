(* The SplitMix64 state lives in eight bytes written and read with the
   unboxed [Bytes] int64 primitives, and the Box-Muller spare in a flat
   one-element float array beside a flag: a mutable [int64] field or a
   [float option] would allocate on every draw. *)
type t = { state : Bytes.t; spare : float array; mutable has_spare : bool }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let state = Bytes.create 8 in
  Bytes.set_int64_ne state 0 s;
  { state; spare = [| 0.0 |]; has_spare = false }

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] int64 t =
  let s = Int64.add (Bytes.get_int64_ne t.state 0) golden_gamma in
  Bytes.set_int64_ne t.state 0 s;
  mix64 s

(* Fowler-Noll-Vo hash of the label, folded into the parent's seed. *)
let hash_label label =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    label;
  !h

let split t ~label =
  let s = Bytes.get_int64_ne t.state 0 in
  of_state (mix64 (Int64.logxor s (hash_label label)))

let int t bound =
  assert (bound > 0);
  (* mask to 62 bits: Int64.to_int keeps the low 63 bits and would
     otherwise interpret bit 62 as the OCaml int's sign *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 1) land max_int in
  v mod bound

let[@inline] float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  v /. 9007199254740992.0 *. bound

let bool t p = float t 1.0 < p

(* A uniform draw in (1e-12, 1), redrawn below, so its [log] is finite. *)
let[@inline] positive t =
  let u = ref (float t 1.0) in
  while !u <= 1e-12 do
    u := float t 1.0
  done;
  !u

let normal t ~mean ~sigma =
  if t.has_spare then begin
    t.has_spare <- false;
    mean +. (sigma *. t.spare.(0))
  end
  else begin
    let u1 = positive t in
    let u2 = float t 1.0 in
    let r = sqrt (-2.0 *. log u1) in
    let theta = 2.0 *. Float.pi *. u2 in
    t.spare.(0) <- r *. sin theta;
    t.has_spare <- true;
    mean +. (sigma *. r *. cos theta)
  end

let geometric t ~mean =
  assert (mean >= 1.0);
  let u = positive t in
  let x = -.mean *. log u in
  max 1 (int_of_float (ceil x))
