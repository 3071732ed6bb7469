module Vec = Mcd_util.Vec
module Probe = Mcd_cpu.Probe

(* A completed interval's events in (seq, stage rank) order, without a
   comparison sort: event [i] is filed at slot
   [4 * (seq - min_seq) + Probe.stage_rank stage] of a table over the
   interval's seq span (the table Dag.build keeps), and the table is read
   back in slot order. An instruction emits one fetch, dispatch and
   retire event and one work event, execute or mem as its issue queue
   decides, so no two events of a run share a slot.

   A collector keeps its table between intervals, all -1 while unused.
   A fresh table per interval would add about one word of major-heap
   allocation per event to the trace run, hence more major collections
   (17 against 14 over headline-cold's traces, which a traced benchmark
   run holds whole). *)
type t = { mutable slots : int array }

let create () = { slots = [||] }

let order t (buf : Probe.event Vec.t) =
  let n = Vec.length buf in
  if n = 0 then [||]
  else begin
    let min_seq = ref max_int and max_seq = ref min_int in
    for i = 0 to n - 1 do
      let seq = (Vec.get buf i).Probe.seq in
      if seq < !min_seq then min_seq := seq;
      if seq > !max_seq then max_seq := seq
    done;
    let min_seq = !min_seq in
    let len = 4 * (!max_seq - min_seq + 1) in
    if Array.length t.slots < len then t.slots <- Array.make len (-1);
    let slots = t.slots in
    for i = 0 to n - 1 do
      let e = Vec.get buf i in
      let s = (4 * (e.Probe.seq - min_seq)) + Probe.stage_rank e.Probe.stage in
      if slots.(s) >= 0 then begin
        Array.fill slots 0 len (-1);
        invalid_arg
          (Printf.sprintf "two events share seq %d and stage rank %d"
             e.Probe.seq
             (Probe.stage_rank e.Probe.stage))
      end;
      slots.(s) <- i
    done;
    let out = Array.make n (Vec.get buf 0) in
    let k = ref 0 in
    for s = 0 to len - 1 do
      let i = slots.(s) in
      if i >= 0 then begin
        slots.(s) <- -1;
        out.(!k) <- Vec.get buf i;
        incr k
      end
    done;
    out
  end
