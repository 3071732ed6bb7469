type 'a t = { data : 'a array; mutable len : int; dummy : 'a }

let create ~capacity ~dummy =
  if capacity <= 0 then invalid_arg "Agequeue.create: capacity must be > 0";
  { data = Array.make capacity dummy; len = 0; dummy }

let length t = t.len
let capacity t = Array.length t.data
let is_empty t = t.len = 0
let is_full t = t.len >= Array.length t.data

let push t v =
  if is_full t then invalid_arg "Agequeue.push: queue is full";
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Agequeue.get: index out of bounds";
  t.data.(i)

let remove t i =
  if i < 0 || i >= t.len then invalid_arg "Agequeue.remove: index out of bounds";
  Array.blit t.data (i + 1) t.data i (t.len - i - 1);
  t.len <- t.len - 1;
  t.data.(t.len) <- t.dummy

let clear t =
  for i = 0 to t.len - 1 do
    t.data.(i) <- t.dummy
  done;
  t.len <- 0

let to_list t = List.init t.len (fun i -> t.data.(i))
