type t = {
  next_free : int array; (* per-unit time (ps) at which it can accept work *)
  latency : int;
  pipelined : bool;
  mutable ops : int;
}

let create ~count ~latency_cycles ~pipelined =
  assert (count > 0 && latency_cycles > 0);
  { next_free = Array.make count 0; latency = latency_cycles; pipelined; ops = 0 }

let try_issue t ~now ~period_ps =
  let n = Array.length t.next_free in
  let i = ref 0 in
  while !i < n && t.next_free.(!i) > now do
    incr i
  done;
  if !i >= n then -1
  else begin
    let completion = now + (t.latency * period_ps) in
    t.next_free.(!i) <- (if t.pipelined then now + period_ps else completion);
    t.ops <- t.ops + 1;
    completion
  end

let next_free t =
  let earliest = ref max_int in
  for i = 0 to Array.length t.next_free - 1 do
    if t.next_free.(i) < !earliest then earliest := t.next_free.(i)
  done;
  !earliest

let latency_cycles t = t.latency
let operations t = t.ops
