type t = int

let zero = 0
let ps x = x
let ns x = x * 1_000
let us x = x * 1_000_000
let of_ns_float x = int_of_float (Float.round (x *. 1_000.))
let to_ns x = float_of_int x /. 1_000.
let to_us x = float_of_int x /. 1_000_000.
let to_s x = float_of_int x /. 1e12

let pp fmt x =
  let fx = float_of_int x in
  if x < 10_000 then Format.fprintf fmt "%d ps" x
  else if x < 10_000_000 then Format.fprintf fmt "%.2f ns" (fx /. 1e3)
  else if x < 10_000_000_000 then Format.fprintf fmt "%.2f us" (fx /. 1e6)
  else Format.fprintf fmt "%.3f ms" (fx /. 1e9)

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9
