module Time = Mcd_util.Time
module Rng = Mcd_util.Rng
module Agequeue = Mcd_util.Agequeue
module Inst = Mcd_isa.Inst
module Walker = Mcd_isa.Walker
module Domain = Mcd_domains.Domain
module Clock = Mcd_domains.Clock
module Dvfs = Mcd_domains.Dvfs
module Freq = Mcd_domains.Freq
module Sync = Mcd_domains.Sync
module Reconfig = Mcd_domains.Reconfig
module Energy = Mcd_power.Energy
module Metrics = Mcd_power.Metrics
module Sink = Mcd_obs.Sink

type istate = In_fetch_buffer | In_queue | Completed | Retired_inst

type inflight = {
  di : Inst.dyn;
  mutable state : istate;
  fetched_at : Time.t;
  mutable queued_at : Time.t;
  mutable completion : Time.t;
  exec_domain : Domain.t;
  mutable producers : inflight array;
  arrivals : Time.t array; (* cached cross-domain result arrivals, -1 unset *)
  mispredicted : bool;
}

let sentinel =
  {
    di =
      {
        Inst.seq = -1;
        static_id = -1;
        klass = Inst.Int_alu;
        srcs = [||];
        dst = Inst.no_reg;
        addr = Inst.no_reg;
        taken = false;
      };
    state = Completed;
    fetched_at = 0;
    queued_at = 0;
    completion = 0;
    exec_domain = Domain.Front_end;
    producers = [||];
    arrivals = [| 0; 0; 0; 0 |];
    mispredicted = false;
  }

(* What the last scan of one queue found, for skipping the next. A scan
   is known to change nothing, and to evaluate no [result_arrival] for
   the first time, while the queue has had no push, no instruction has
   become [Completed] since [completions_at] (the pipeline's count when
   that scan began), and [now] is before [until], the earliest time at
   which a kept entry could change. A push sets [completions_at] to -1. *)
type quiet = {
  mutable completions_at : int;
  mutable until : Time.t;
  mutable count : int; (* the occupancy scan's answer *)
}

type queue = {
  entries : inflight Agequeue.t; (* program order, oldest first *)
  issue : quiet; (* the issue scan, [tick_queue] *)
  occupancy : quiet; (* [sample_stage]'s owned-entry count *)
}

let make_queue ~capacity =
  let quiet () = { completions_at = -1; until = 0; count = 0 } in
  {
    entries = Agequeue.create ~capacity ~dummy:sentinel;
    issue = quiet ();
    occupancy = quiet ();
  }

let enqueue q inf =
  Agequeue.push q.entries inf;
  q.issue.completions_at <- -1;
  q.occupancy.completions_at <- -1

let exec_domain_of (klass : Inst.iclass) =
  match klass with
  | Inst.Int_alu | Inst.Int_mult | Inst.Branch -> Domain.Integer
  | Inst.Fp_alu | Inst.Fp_mult -> Domain.Floating
  | Inst.Load | Inst.Store -> Domain.Memory

type t = {
  cfg : Config.t;
  dvfs : Dvfs.t;
  reconfig : Reconfig.t;
  clocks : Clock.t array; (* indexed by Domain.index; aliased when single *)
  single : bool;
  walker : Walker.t;
  mutable pushback : Walker.event option;
  controller : Controller.t;
  probe : Probe.t option;
  energy : Energy.Accum.t;
  sync_stats : Sync.stats;
  bpred : Branch_pred.t;
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  fu_int_alu : Fu.t;
  fu_int_mult : Fu.t;
  fu_fp_alu : Fu.t;
  fu_fp_mult : Fu.t;
  rob : inflight Queue.t;
  mutable rob_count : int;
  fetch_buf : inflight Queue.t;
  mutable fetch_buf_count : int;
  iq_int : queue;
  iq_fp : queue;
  lsq : queue;
  mutable completions : int; (* instructions that became [Completed] *)
  mutable dep_scratch : int array; (* reused by dep_seqs_of *)
  reg_src : inflight array; (* logical register -> youngest producer *)
  mutable int_renames : int;
  mutable fp_renames : int;
  mutable fetch_resume : Time.t;
  mutable pending_redirect : inflight option;
  mutable redirect_dep : int; (* seq of the branch that stalled fetch; -1 none *)
  mutable last_fetch_line : int;
  mutable walker_done : bool;
  mutable stream_pos : int; (* dynamic instructions accepted from the stream *)
  mutable retired : int;
  mutable last_retire_time : Time.t;
  max_insts : int; (* measured-window size *)
  warmup_insts : int;
  mutable measuring : bool; (* warm-up complete, statistics armed *)
  mutable base_time : Time.t; (* measurement-window start *)
  mutable base_cycles : int;
  mutable base_reconfigs : int;
  (* controller sampling *)
  mutable next_sample_cycle : int;
  occ_sum : float array;
  mutable occ_ticks : int;
  mutable retired_at_sample : int;
  mutable l1d_misses_at_sample : int;
  mutable l2_misses_at_sample : int;
  (* instrumentation cost accounting *)
  mutable instr_points : int;
  mutable instr_overhead_ps : int;
  (* phase sampling: when [sampler] is present, stable repeated phase
     instances are fast-forwarded and their contribution accumulated
     here analytically instead of being simulated cycle by cycle. The
     accumulators are folded into [metrics] at the end of the run. *)
  sampler : Sampler.t option;
  mutable extrap_ps : int;
  mutable extrap_cycles : int;
  extrap_pj : float array; (* Domain.count + 1; last slot external *)
  mutable extrap_crossings : int;
  mutable extrap_penalties : int;
  mutable extrap_reconfigs : int;
  mutable extrap_instr_points : int;
  mutable extrap_instr_ps : int;
  (* observability: all [obs_*] fields are dead weight when [sink] is
     [None] — every producer site guards on the option first *)
  sink : Sink.t option;
  mutable next_obs_cycle : int; (* max_int when no sink *)
  mutable obs_prev_cycles : int;
  mutable obs_prev_retired : int;
  obs_prev_pj : float array; (* Domain.count + 1; last slot external *)
  obs_mhz : float array; (* per-sample scratch, reused *)
  obs_volt : float array;
  obs_occ : float array;
  obs_pj : float array;
  obs_freq_hist : Mcd_obs.Metrics.histogram array;
}

let fetch_buffer_cap = 16

let create ?probe ?(controller = Controller.nop) ?sink ?sampling
    ?(warmup_insts = 0) ~config ~program ~input ~max_insts () =
  let cfg : Config.t = config in
  let dvfs = Dvfs.create () in
  let rng = Rng.create cfg.seed in
  let jitter_sigma = if cfg.jitter then 110.0 /. 3.0 else 0.0 in
  let mk_clock domain =
    Clock.create ~jitter_sigma_ps:jitter_sigma
      ~rng:(Rng.split rng ~label:(Domain.name domain))
      ~dvfs ~domain ()
  in
  let single, clocks =
    match cfg.clocking with
    | Config.Mcd ->
        (false, Array.of_list (List.map mk_clock Domain.all))
    | Config.Single_clock mhz ->
        (* a different machine, not a transition: start at the point *)
        List.iter (fun d -> Dvfs.force dvfs d ~mhz) Domain.all;
        let c = mk_clock Domain.Front_end in
        (true, Array.make Domain.count c)
  in
  {
    cfg;
    dvfs;
    reconfig = Reconfig.create dvfs;
    clocks;
    single;
    walker = Walker.create program ~input;
    pushback = None;
    controller;
    probe;
    energy = Energy.Accum.create ();
    sync_stats = Sync.create_stats ();
    bpred = Branch_pred.create ();
    l1i = Cache.create cfg.l1i;
    l1d = Cache.create cfg.l1d;
    l2 = Cache.create cfg.l2;
    fu_int_alu =
      Fu.create ~count:cfg.int_alus ~latency_cycles:cfg.int_alu_latency
        ~pipelined:true;
    fu_int_mult =
      Fu.create ~count:cfg.int_mults ~latency_cycles:cfg.int_mult_latency
        ~pipelined:false;
    fu_fp_alu =
      Fu.create ~count:cfg.fp_alus ~latency_cycles:cfg.fp_alu_latency
        ~pipelined:true;
    fu_fp_mult =
      Fu.create ~count:cfg.fp_mults ~latency_cycles:cfg.fp_mult_latency
        ~pipelined:false;
    rob = Queue.create ();
    rob_count = 0;
    fetch_buf = Queue.create ();
    fetch_buf_count = 0;
    iq_int = make_queue ~capacity:cfg.iq_int_size;
    iq_fp = make_queue ~capacity:cfg.iq_fp_size;
    lsq = make_queue ~capacity:cfg.lsq_size;
    completions = 0;
    dep_scratch = Array.make 8 0;
    reg_src = Array.make Inst.num_logical_regs sentinel;
    int_renames = 0;
    fp_renames = 0;
    fetch_resume = Time.zero;
    pending_redirect = None;
    redirect_dep = -1;
    last_fetch_line = -1;
    walker_done = false;
    stream_pos = 0;
    retired = 0;
    last_retire_time = Time.zero;
    max_insts;
    warmup_insts;
    measuring = warmup_insts = 0;
    base_time = Time.zero;
    base_cycles = 0;
    base_reconfigs = 0;
    next_sample_cycle =
      (if controller.Controller.sample_interval_cycles > 0 then
         controller.Controller.sample_interval_cycles
       else max_int);
    occ_sum = Array.make Domain.count 0.0;
    occ_ticks = 0;
    retired_at_sample = 0;
    l1d_misses_at_sample = 0;
    l2_misses_at_sample = 0;
    instr_points = 0;
    instr_overhead_ps = 0;
    sampler = Option.map Sampler.create sampling;
    extrap_ps = 0;
    extrap_cycles = 0;
    extrap_pj = Array.make (Domain.count + 1) 0.0;
    extrap_crossings = 0;
    extrap_penalties = 0;
    extrap_reconfigs = 0;
    extrap_instr_points = 0;
    extrap_instr_ps = 0;
    sink;
    next_obs_cycle =
      (match sink with Some s -> Sink.stride_cycles s | None -> max_int);
    obs_prev_cycles = 0;
    obs_prev_retired = 0;
    obs_prev_pj =
      (match sink with
      | Some _ -> Array.make (Domain.count + 1) 0.0
      | None -> [||]);
    obs_mhz =
      (match sink with Some _ -> Array.make Domain.count 0.0 | None -> [||]);
    obs_volt =
      (match sink with Some _ -> Array.make Domain.count 0.0 | None -> [||]);
    obs_occ =
      (match sink with Some _ -> Array.make Domain.count 0.0 | None -> [||]);
    obs_pj =
      (match sink with
      | Some _ -> Array.make (Domain.count + 1) 0.0
      | None -> [||]);
    obs_freq_hist =
      (match sink with
      | Some s ->
          Array.init Domain.count (fun i ->
              Mcd_obs.Metrics.histogram (Sink.metrics s)
                (Printf.sprintf "freq_residency.%s"
                   (Domain.name (Domain.of_index i)))
                ~bins:Freq.num_steps)
      | None -> [||]);
  }

let clock t domain = t.clocks.(Domain.index domain)
let period t domain ~now = Clock.period_ps (clock t domain) ~now
let charge t ~now activity = Energy.Accum.charge t.energy t.dvfs ~now activity

(* Arrival time of a value produced at [when_] in [producer] into
   [consumer]'s domain. Within a domain the handoff costs the normal
   pipeline latch: the value is usable at the first edge strictly after
   production (represented as when_ + 1 ps, which pushes consumption to
   the following tick). Across domains the synchronization circuit's
   capture replaces that latch: the value is usable at the capturing
   consumer edge, one consumer cycle later when the edges conflict. *)
let cross_arrival t ~producer ~consumer ~when_ =
  if producer = consumer || t.single then when_ + 1
  else
    match t.sink with
    | None ->
        Sync.arrival t.sync_stats ~consumer:(clock t consumer)
          ~producer_period_ps:(period t producer ~now:when_)
          ~t:when_
    | Some sink ->
        let penalties_before = t.sync_stats.Sync.penalties in
        let a =
          Sync.arrival t.sync_stats ~consumer:(clock t consumer)
            ~producer_period_ps:(period t producer ~now:when_)
            ~t:when_
        in
        if t.sync_stats.Sync.penalties <> penalties_before then
          Sink.sync_penalty sink ~t_ps:when_ ~domain:(Domain.index consumer);
        a

(* Cached arrival of an instruction's result into [domain]. *)
let result_arrival t inf domain =
  if inf == sentinel then Time.zero
  else begin
    assert (inf.state = Completed || inf.state = Retired_inst);
    let i = Domain.index domain in
    if inf.arrivals.(i) >= 0 then inf.arrivals.(i)
    else begin
      let a =
        cross_arrival t ~producer:inf.exec_domain ~consumer:domain
          ~when_:inf.completion
      in
      inf.arrivals.(i) <- a;
      a
    end
  end

(* When [inf]'s producers are all ready in [domain]: [now] when they
   are; otherwise the cached arrival of the first producer that has
   completed but not yet arrived, or [max_int] when the first blocker
   has not completed (only a completion changes that). Producers are
   walked in order and the walk stops at the first blocker: a first
   [result_arrival] has effects, so where it stops is part of the run. *)
let ready_at t inf ~domain ~now =
  let producers = inf.producers in
  let n = Array.length producers in
  let i = ref 0 and at = ref now in
  while !i < n do
    let p = producers.(!i) in
    if p == sentinel then incr i
    else if p.state = Completed || p.state = Retired_inst then begin
      let a = result_arrival t p domain in
      if a <= now then incr i
      else begin
        at := a;
        i := n
      end
    end
    else begin
      at := max_int;
      i := n
    end
  done;
  !at

let emit_event t inf stage ~start ~duration ~deps =
  match t.probe with
  | None -> ()
  | Some probe ->
      probe.Probe.on_event
        {
          Probe.seq = inf.di.Inst.seq;
          static_id = inf.di.Inst.static_id;
          klass = inf.di.Inst.klass;
          stage;
          domain =
            (match stage with
            | Probe.Fetch_s | Probe.Dispatch_s | Probe.Retire_s ->
                Domain.Front_end
            | Probe.Execute_s -> inf.exec_domain
            | Probe.Mem_s -> Domain.Memory);
          start;
          duration;
          dep_seqs = deps;
        }

(* Sorted, deduplicated producer seqs, built in a preallocated scratch
   buffer (producer fan-in is tiny, so insertion sort wins). Only the
   probe consumes dependence edges, so call sites gate on its presence
   through [deps_of]. *)
let dep_seqs_of t inf =
  let n = Array.length inf.producers in
  if n = 0 then [||]
  else begin
    if Array.length t.dep_scratch < n then
      t.dep_scratch <- Array.make n 0;
    let scratch = t.dep_scratch in
    let m = ref 0 in
    for i = 0 to n - 1 do
      let p = inf.producers.(i) in
      if p != sentinel then begin
        scratch.(!m) <- p.di.Inst.seq;
        incr m
      end
    done;
    for i = 1 to !m - 1 do
      let v = scratch.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && scratch.(!j) > v do
        scratch.(!j + 1) <- scratch.(!j);
        decr j
      done;
      scratch.(!j + 1) <- v
    done;
    let uniq = ref 0 in
    for i = 0 to !m - 1 do
      if i = 0 || scratch.(i) <> scratch.(!uniq - 1) then begin
        scratch.(!uniq) <- scratch.(i);
        incr uniq
      end
    done;
    Array.sub scratch 0 !uniq
  end

let deps_of t inf =
  match t.probe with None -> [||] | Some _ -> dep_seqs_of t inf

(* ------------------------------------------------------------------ *)
(* Front-end: retire, dispatch, fetch, controller sampling             *)
(* ------------------------------------------------------------------ *)

let retire_stage t ~now =
  let p = period t Domain.Front_end ~now in
  let budget = ref t.cfg.retire_width in
  let continue_ = ref true in
  while
    !continue_ && !budget > 0
    && t.retired < t.warmup_insts + t.max_insts
    && not (Queue.is_empty t.rob)
  do
    let head = Queue.peek t.rob in
    if head.state = Completed && result_arrival t head Domain.Front_end <= now
    then begin
      ignore (Queue.pop t.rob);
      t.rob_count <- t.rob_count - 1;
      head.state <- Retired_inst;
      (* consumers hold their own reference to [head]; dropping its
         producer links frees the transitive dependency cone *)
      head.producers <- [||];
      t.retired <- t.retired + 1;
      t.last_retire_time <- now;
      (if head.di.Inst.dst >= 0 then
         if Inst.is_fp_reg head.di.Inst.dst then
           t.fp_renames <- t.fp_renames - 1
         else t.int_renames <- t.int_renames - 1);
      charge t ~now Energy.Retire;
      emit_event t head Probe.Retire_s ~start:now ~duration:p ~deps:[||];
      (* warm-up boundary: arm the measured statistics *)
      if (not t.measuring) && t.retired >= t.warmup_insts then begin
        t.measuring <- true;
        t.base_time <- now;
        t.base_cycles <- Clock.cycles (clock t Domain.Front_end);
        t.base_reconfigs <- Reconfig.writes t.reconfig;
        Energy.Accum.reset t.energy;
        t.sync_stats.Sync.crossings <- 0;
        t.sync_stats.Sync.penalties <- 0;
        t.instr_points <- 0;
        t.instr_overhead_ps <- 0;
        (* the energy accumulator was just reset; realign the sampler's
           per-domain baselines or the next pJ delta clamps to zero *)
        Array.fill t.obs_prev_pj 0 (Array.length t.obs_prev_pj) 0.0;
        (* likewise a sampler recording opened during warm-up would
           difference snapshots across the reset: discard it *)
        (match t.sampler with
        | Some s -> Sampler.abort_record s
        | None -> ())
      end;
      decr budget
    end
    else continue_ := false
  done

let queue t domain =
  match domain with
  | Domain.Integer -> t.iq_int
  | Domain.Floating -> t.iq_fp
  | Domain.Memory -> t.lsq
  | Domain.Front_end -> assert false

let queue_has_space t domain =
  not (Agequeue.is_full (queue t domain).entries)

let rename_has_space t inf =
  let dst = inf.di.Inst.dst in
  dst < 0
  || (if Inst.is_fp_reg dst then
        t.fp_renames < t.cfg.fp_phys_regs - 32
      else t.int_renames < t.cfg.int_phys_regs - 32)

let dispatch_stage t ~now =
  let p = period t Domain.Front_end ~now in
  let budget = ref t.cfg.dispatch_width in
  let continue_ = ref true in
  while !continue_ && !budget > 0 && not (Queue.is_empty t.fetch_buf) do
    let cand = Queue.peek t.fetch_buf in
    if
      now >= cand.fetched_at + (t.cfg.decode_depth * p)
      && t.rob_count < t.cfg.rob_size
      && rename_has_space t cand
      && queue_has_space t cand.exec_domain
    then begin
      ignore (Queue.pop t.fetch_buf);
      t.fetch_buf_count <- t.fetch_buf_count - 1;
      (* capture producers at rename time *)
      cand.producers <-
        Array.map (fun r -> t.reg_src.(r)) cand.di.Inst.srcs;
      let dst = cand.di.Inst.dst in
      if dst >= 0 then begin
        t.reg_src.(dst) <- cand;
        if Inst.is_fp_reg dst then t.fp_renames <- t.fp_renames + 1
        else t.int_renames <- t.int_renames + 1
      end;
      cand.queued_at <-
        cross_arrival t ~producer:Domain.Front_end
          ~consumer:cand.exec_domain ~when_:now;
      cand.state <- In_queue;
      Queue.push cand t.rob;
      t.rob_count <- t.rob_count + 1;
      enqueue (queue t cand.exec_domain) cand;
      charge t ~now
        (match cand.exec_domain with
        | Domain.Integer -> Energy.Iq_write_int
        | Domain.Floating -> Energy.Iq_write_fp
        | Domain.Memory -> Energy.Lsq_op
        | Domain.Front_end -> assert false);
      charge t ~now Energy.Decode_rename;
      charge t ~now Energy.Rob_write;
      emit_event t cand Probe.Dispatch_s ~start:now ~duration:p ~deps:[||];
      decr budget
    end
    else continue_ := false
  done

let next_stream_event t =
  match t.pushback with
  | Some _ as ev ->
      t.pushback <- None;
      ev
  | None -> Walker.next t.walker

(* Handle an I-cache access for a new fetch line. Returns true if the
   line hit; on a miss, fetch resumes once the fill returns from L2 (or
   main memory) through the domain-crossing latches. *)
let icache_access t ~now ~pc =
  let addr = pc * 4 in
  charge t ~now Energy.L1i_access;
  if Cache.access t.l1i ~addr then true
  else begin
    let at_l2 =
      cross_arrival t ~producer:Domain.Front_end ~consumer:Domain.Memory
        ~when_:now
    in
    charge t ~now Energy.L2_access;
    let l2_done =
      at_l2 + (t.cfg.l2.Config.latency_cycles * period t Domain.Memory ~now)
    in
    let fill_done =
      if Cache.access t.l2 ~addr then l2_done
      else begin
        Energy.Accum.charge t.energy t.dvfs ~now Energy.Main_memory_access;
        l2_done + Time.ns t.cfg.main_memory_ns
      end
    in
    let back =
      cross_arrival t ~producer:Domain.Memory ~consumer:Domain.Front_end
        ~when_:fill_done
    in
    t.fetch_resume <- max t.fetch_resume back;
    false
  end

let apply_reaction t ~now (reaction : Controller.reaction) =
  let charged = reaction.stall_cycles > 0 || reaction.table_reads > 0 in
  if charged then begin
    t.instr_points <- t.instr_points + 1;
    let p = period t Domain.Front_end ~now in
    let stall = reaction.stall_cycles * p in
    if stall > 0 then begin
      t.fetch_resume <- max t.fetch_resume (now + stall);
      t.instr_overhead_ps <- t.instr_overhead_ps + stall
    end;
    (* the inserted instructions' own energy: one fetched+executed
       instruction per stall cycle, plus table lookups that miss in L1
       and hit in L2 *)
    for _ = 1 to reaction.stall_cycles do
      charge t ~now Energy.Fetch;
      charge t ~now Energy.Decode_rename;
      charge t ~now Energy.Int_alu_op
    done;
    for _ = 1 to reaction.table_reads do
      charge t ~now Energy.L1d_access;
      charge t ~now Energy.L2_access
    done
  end;
  match reaction.set with
  | None -> ()
  | Some setting ->
      (match t.sink with
      | None -> ()
      | Some sink ->
          Sink.decision sink ~t_ps:now ~source:t.controller.Controller.name
            ~trigger:Sink.Marker ~setting ~detail:"marker reaction" ());
      Reconfig.write ?sink:t.sink t.reconfig setting ~now

(* Process a marker normally: probe callback, controller reaction,
   reaction cost. Returns true when the reaction stalled the front end
   (the fetch loop must stop for this cycle). *)
let process_marker t m ~now =
  (match t.probe with
  | Some probe -> probe.Probe.on_marker m ~seq:t.stream_pos
  | None -> ());
  let reaction = t.controller.Controller.on_marker m ~now in
  apply_reaction t ~now reaction;
  reaction.Controller.stall_cycles > 0

(* Snapshots include the extrapolation accumulators so a recorded span
   that itself contains skips of already-stable inner signatures still
   measures its full cost. *)
let sampler_snapshot t ~now =
  {
    Sampler.now_ps = now + t.extrap_ps;
    cycles_front = Clock.cycles (clock t Domain.Front_end) + t.extrap_cycles;
    pj =
      Array.init (Domain.count + 1) (fun i ->
          t.extrap_pj.(i)
          +.
          if i < Domain.count then
            Energy.Accum.domain_pj t.energy (Domain.of_index i)
          else Energy.Accum.external_pj t.energy);
    crossings = t.sync_stats.Sync.crossings + t.extrap_crossings;
    penalties = t.sync_stats.Sync.penalties + t.extrap_penalties;
    reconfigs = Reconfig.writes t.reconfig + t.extrap_reconfigs;
    instr_points = t.instr_points + t.extrap_instr_points;
    instr_ps = t.instr_overhead_ps + t.extrap_instr_ps;
  }

let current_targets t =
  Array.init Domain.count (fun i -> Dvfs.target_mhz t.dvfs (Domain.of_index i))

(* Fast-forward the walker across the balanced interior of a stable
   instance whose enter marker was just processed. The matching exit
   marker is pushed back so the next fetch round processes it normally
   (controller restore, probe). The recorded measure, scaled to the
   instructions actually swallowed (clamped to what is left of the
   measured window), lands in the extrapolation accumulators; the
   DVFS targets the recorded instance ended with are restored so the
   post-instance machine executes at the frequencies the exact run
   would have left behind. *)
(* Account [skipped] fast-forwarded instructions against the recorded
   measure: scale every delta by the instructions actually counted
   (an exact run would stop mid-instance at the window edge, so the
   extrapolation is clamped to what is left of the measured window)
   and restore the DVFS targets the recorded span ended with. *)
let extrapolate t s (m : Sampler.measure) ~skipped =
  Sampler.note_skipped s ~insts:skipped;
  t.stream_pos <- t.stream_pos + skipped;
  let remaining = t.warmup_insts + t.max_insts - t.retired in
  let counted = min skipped remaining in
  t.retired <- t.retired + counted;
  let scale = float_of_int counted /. float_of_int (max 1 m.Sampler.m_insts) in
  let si v = int_of_float (Float.round (scale *. float_of_int v)) in
  t.extrap_ps <- t.extrap_ps + si m.Sampler.dps;
  t.extrap_cycles <- t.extrap_cycles + si m.Sampler.dcycles;
  Array.iteri
    (fun i v -> t.extrap_pj.(i) <- t.extrap_pj.(i) +. (scale *. v))
    m.Sampler.dpj;
  t.extrap_crossings <- t.extrap_crossings + si m.Sampler.dcrossings;
  t.extrap_penalties <- t.extrap_penalties + si m.Sampler.dpenalties;
  t.extrap_reconfigs <- t.extrap_reconfigs + si m.Sampler.dreconfigs;
  t.extrap_instr_points <- t.extrap_instr_points + si m.Sampler.dinstr_points;
  t.extrap_instr_ps <- t.extrap_instr_ps + si m.Sampler.dinstr_ps;
  Array.iteri
    (fun i mhz ->
      let d = Domain.of_index i in
      if Dvfs.target_mhz t.dvfs d <> mhz then Dvfs.force t.dvfs d ~mhz)
    m.Sampler.exit_targets

(* Functional warming (the SMARTS discipline): a fast-forwarded
   instruction still touches the caches and the branch predictor —
   tags, LRU and history update as the exact run's would, with no
   timing and no energy (the recorded measure's extrapolation covers
   both). Without this, skipped phases stop evicting, the phase that
   follows a skip sees impossibly warm caches, and every measure
   recorded there under-states the machine's steady-state miss cost. *)
let warm_inst t (di : Inst.dyn) =
  let line = di.Inst.static_id lsr 4 in
  if line <> t.last_fetch_line then begin
    t.last_fetch_line <- line;
    let iaddr = di.Inst.static_id * 4 in
    if not (Cache.access t.l1i ~addr:iaddr) then
      ignore (Cache.access t.l2 ~addr:iaddr : bool)
  end;
  match di.Inst.klass with
  | Inst.Load | Inst.Store ->
      if not (Cache.access t.l1d ~addr:di.Inst.addr) then
        ignore (Cache.access t.l2 ~addr:di.Inst.addr : bool)
  | Inst.Branch ->
      ignore
        (Branch_pred.predict_and_update t.bpred ~pc:di.Inst.static_id
           ~taken:di.Inst.taken
          : bool)
  | Inst.Int_alu | Inst.Int_mult | Inst.Fp_alu | Inst.Fp_mult -> ()

let do_skip t s (m : Sampler.measure) =
  let depth = ref 1 in
  let skipped = ref 0 in
  (* the machine is drained, so [retired] is the exact stream position:
     once the swallow reaches the window edge the run is over and the
     stream need not stay consistent — stop rather than expand the rest
     of the program through the walker for nothing *)
  let cap = t.warmup_insts + t.max_insts - t.retired in
  let continue_ = ref true in
  while !continue_ && !depth > 0 && !skipped < cap do
    match Walker.next t.walker with
    | None ->
        t.walker_done <- true;
        continue_ := false
    | Some (Walker.Inst di) ->
        warm_inst t di;
        incr skipped
    | Some (Walker.Marker mk) as ev -> (
        match mk with
        | Walker.Enter_func _ | Walker.Enter_loop _ -> incr depth
        | Walker.Exit_func _ | Walker.Exit_loop _ ->
            decr depth;
            if !depth = 0 then t.pushback <- ev)
  done;
  extrapolate t s m ~skipped:!skipped

(* Fast-forward from a taken back edge (already pulled off the stream)
   to the loop's final not-taken back edge, which is pushed back so
   the loop's exit runs exactly. Interior markers are balanced — every
   swallowed iteration contains only complete subtrees. *)
let do_skip_iters t s (m : Sampler.measure) ~loop_id ~bound =
  let depth = ref 0 in
  let skipped = ref 1 (* the triggering back edge itself *) in
  let cap = t.warmup_insts + t.max_insts - t.retired in
  let continue_ = ref true in
  while !continue_ && !skipped < cap do
    match Walker.next t.walker with
    | None ->
        t.walker_done <- true;
        continue_ := false
    | Some (Walker.Inst di) as ev -> (
        match Walker.as_loop_branch ~pc:di.Inst.static_id with
        | Some l
          when !depth = 0 && l = loop_id
               && ((not di.Inst.taken) || !skipped >= bound) ->
            (* final back edge (loop over) or bucket edge reached:
               push the boundary branch back and resume exactly *)
            t.pushback <- ev;
            continue_ := false
        | Some _ | None ->
            warm_inst t di;
            incr skipped)
    | Some (Walker.Marker mk) -> (
        match mk with
        | Walker.Enter_func _ | Walker.Enter_loop _ -> incr depth
        | Walker.Exit_func _ | Walker.Exit_loop _ -> decr depth)
  done;
  extrapolate t s m ~skipped:!skipped;
  Sampler.note_iter_boundary s

(* Fetch one instruction into the fetch buffer. Returns false when fetch
   must stop for this cycle: the instruction is a mispredicted branch
   (fetch waits for its redirect) or its line missed in the I-cache. *)
let fetch_inst t (di : Inst.dyn) ~now ~p =
  (* I-cache: access once per new line *)
  let line = di.Inst.static_id lsr 4 in
  let line_hit =
    if line = t.last_fetch_line then true
    else begin
      t.last_fetch_line <- line;
      icache_access t ~now ~pc:di.Inst.static_id
    end
  in
  let mispredicted =
    di.Inst.klass = Inst.Branch
    && not
         (Branch_pred.predict_and_update t.bpred ~pc:di.Inst.static_id
            ~taken:di.Inst.taken)
  in
  let inf =
    {
      di;
      state = In_fetch_buffer;
      fetched_at = now;
      queued_at = now;
      completion = max_int;
      exec_domain = exec_domain_of di.Inst.klass;
      producers = [||];
      arrivals = [| -1; -1; -1; -1 |];
      mispredicted;
    }
  in
  Queue.push inf t.fetch_buf;
  t.fetch_buf_count <- t.fetch_buf_count + 1;
  t.stream_pos <- t.stream_pos + 1;
  (match t.sampler with Some s -> Sampler.note_inst s | None -> ());
  charge t ~now Energy.Fetch;
  (* control dependence: the first fetch after a mispredict recovery
     depends on the resolving branch; an I-cache miss extends the fetch
     event across the fill *)
  let fetch_deps =
    if t.redirect_dep >= 0 then begin
      let d = [| t.redirect_dep |] in
      t.redirect_dep <- -1;
      d
    end
    else [||]
  in
  let fetch_dur = if line_hit then p else max p (t.fetch_resume - now) in
  emit_event t inf Probe.Fetch_s ~start:now ~duration:fetch_dur
    ~deps:fetch_deps;
  if mispredicted then begin
    t.pending_redirect <- Some inf;
    false
  end
  else line_hit

let fetch_stage t ~now =
  if now >= t.fetch_resume && Option.is_none t.pending_redirect then begin
    let p = period t Domain.Front_end ~now in
    let slots = ref t.cfg.fetch_width in
    let continue_ = ref true in
    while !continue_ && !slots > 0 do
      match next_stream_event t with
      | None ->
          t.walker_done <- true;
          continue_ := false
      | Some (Walker.Marker m) as ev -> (
          match t.sampler with
          | None -> if process_marker t m ~now then continue_ := false
          | Some s -> (
              let drained = t.rob_count = 0 && t.fetch_buf_count = 0 in
              match
                Sampler.decide s m ~drained ~measuring:t.measuring
                  ~targets:(fun () -> current_targets t)
              with
              | Sampler.Proceed ->
                  if process_marker t m ~now then continue_ := false
              | Sampler.Wait ->
                  t.pushback <- ev;
                  continue_ := false
              | Sampler.Record ->
                  let stalled = process_marker t m ~now in
                  Sampler.begin_record s ~snapshot:(sampler_snapshot t ~now);
                  if stalled then continue_ := false
              | Sampler.End_record ->
                  Sampler.end_record s ~snapshot:(sampler_snapshot t ~now)
                    ~targets:(current_targets t);
                  if process_marker t m ~now then continue_ := false
              | Sampler.Skip measure ->
                  ignore (process_marker t m ~now : bool);
                  do_skip t s measure;
                  continue_ := false
              | Sampler.Skip_iters _ ->
                  assert false (* only decide_backedge answers this *)))
      | Some (Walker.Inst di) as ev ->
          if t.fetch_buf_count >= fetch_buffer_cap then begin
            (* capacity check first: a pushback here re-presents the
               instruction, so the sampler must not see it yet (its
               boundary accounting is once per event) *)
            t.pushback <- ev;
            continue_ := false
          end
          else begin
            let fetched =
              match t.sampler with
              | None -> fetch_inst t di ~now ~p
              | Some s -> (
                  match Walker.as_loop_branch ~pc:di.Inst.static_id with
                  | None -> fetch_inst t di ~now ~p
                  | Some loop_id -> (
                      let drained =
                        t.rob_count = 0 && t.fetch_buf_count = 0
                      in
                      match
                        Sampler.decide_backedge s ~loop_id
                          ~taken:di.Inst.taken ~drained
                          ~measuring:t.measuring
                          ~targets:(fun () -> current_targets t)
                      with
                      | Sampler.Proceed -> fetch_inst t di ~now ~p
                      | Sampler.Wait ->
                          t.pushback <- ev;
                          false
                      | Sampler.Record ->
                          Sampler.begin_record s
                            ~snapshot:(sampler_snapshot t ~now);
                          fetch_inst t di ~now ~p
                      | Sampler.End_record ->
                          Sampler.end_record s
                            ~snapshot:(sampler_snapshot t ~now)
                            ~targets:(current_targets t);
                          fetch_inst t di ~now ~p
                      | Sampler.Skip _ ->
                          assert false (* only decide (markers) answers this *)
                      | Sampler.Skip_iters (measure, bound) ->
                          do_skip_iters t s measure ~loop_id ~bound;
                          false))
            in
            if fetched then decr slots else continue_ := false
          end
    done
  end

(* A scan's record lets the next scan of the same queue be skipped; see
   [quiet]. The skipped scan would find what this one found: global
   [now] never decreases, so a cached arrival at or before it stays
   there, and entries change only by a push, by a completion or at an
   [until] time. *)
let quiet t r ~now = r.completions_at = t.completions && now < r.until

let earlier (a : Time.t) b = if a < b then a else b

(* The occupancy signal counts the backlog the domain itself owns:
   entries ready to issue, plus entries waiting on a producer that
   executes in this same domain. Entries stalled on another domain's
   results say nothing about this domain's speed. The last count is
   reused while [quiet] holds; its [until] takes the arrival of every
   completed producer the walk saw still in flight, since any of them
   can change the count. *)
let owned_count t q domain ~now =
  let r = q.occupancy in
  if quiet t r ~now then r.count
  else begin
    let count = ref 0 and until = ref max_int in
    for k = 0 to Agequeue.length q.entries - 1 do
      let inf = Agequeue.get q.entries k in
      if inf.queued_at > now then until := earlier !until inf.queued_at
      else begin
        let producers = inf.producers in
        let n = Array.length producers in
        let i = ref 0 and owned = ref true in
        while !i < n do
          let p = producers.(!i) in
          let arrival =
            if p == sentinel then now
            else if p.state = Completed || p.state = Retired_inst then
              result_arrival t p domain
            else max_int
          in
          if arrival <= now then incr i
          else begin
            until := earlier !until arrival;
            if p.exec_domain = domain then begin
              owned := true;
              i := n
            end
            else begin
              owned := false;
              incr i
            end
          end
        done;
        if !owned then incr count
      end
    done;
    r.completions_at <- t.completions;
    r.until <- !until;
    r.count <- !count;
    !count
  end

let sample_stage t ~now =
  if t.controller.Controller.sample_interval_cycles > 0 then begin
    t.occ_sum.(Domain.index Domain.Front_end) <-
      t.occ_sum.(Domain.index Domain.Front_end)
      +. float_of_int t.fetch_buf_count;
    t.occ_sum.(Domain.index Domain.Integer) <-
      t.occ_sum.(Domain.index Domain.Integer)
      +. float_of_int (owned_count t t.iq_int Domain.Integer ~now);
    t.occ_sum.(Domain.index Domain.Floating) <-
      t.occ_sum.(Domain.index Domain.Floating)
      +. float_of_int (owned_count t t.iq_fp Domain.Floating ~now);
    t.occ_sum.(Domain.index Domain.Memory) <-
      t.occ_sum.(Domain.index Domain.Memory)
      +. float_of_int (owned_count t t.lsq Domain.Memory ~now);
    t.occ_ticks <- t.occ_ticks + 1;
    let front_cycles = Clock.cycles (clock t Domain.Front_end) in
    if front_cycles >= t.next_sample_cycle then begin
      let interval = t.controller.Controller.sample_interval_cycles in
      let ticks = float_of_int (max 1 t.occ_ticks) in
      let sample =
        {
          Controller.elapsed_cycles = interval;
          avg_occupancy = Array.map (fun s -> s /. ticks) t.occ_sum;
          retired = t.retired - t.retired_at_sample;
          total_retired = t.retired;
          l1d_misses = Cache.misses t.l1d - t.l1d_misses_at_sample;
          l2_misses = Cache.misses t.l2 - t.l2_misses_at_sample;
          target_mhz =
            Array.init Domain.count (fun i ->
                Dvfs.target_mhz t.dvfs (Domain.of_index i));
          current_mhz =
            Array.init Domain.count (fun i ->
                Dvfs.current_mhz t.dvfs (Domain.of_index i) ~now);
        }
      in
      (match t.controller.Controller.on_sample sample ~now with
      | None -> ()
      | Some setting ->
          (match t.sink with
          | None -> ()
          | Some sink ->
              Sink.decision sink ~t_ps:now ~source:t.controller.Controller.name
                ~trigger:Sink.Sample ~setting ~detail:"sample reaction" ());
          Reconfig.write ?sink:t.sink t.reconfig setting ~now);
      Array.fill t.occ_sum 0 Domain.count 0.0;
      t.occ_ticks <- 0;
      t.retired_at_sample <- t.retired;
      t.l1d_misses_at_sample <- Cache.misses t.l1d;
      t.l2_misses_at_sample <- Cache.misses t.l2;
      t.next_sample_cycle <- front_cycles + interval
    end
  end

(* Interval sampler for the observability sink: every [stride_cycles]
   front-end cycles, capture per-domain frequency/voltage, raw queue
   occupancy, IPC over the interval, and the per-domain energy delta.
   All scratch arrays are preallocated in [create], so a sample costs a
   few loads per domain plus one Series row append. *)
let obs_stage t ~now =
  match t.sink with
  | None -> ()
  | Some sink ->
      let cycles = Clock.cycles (clock t Domain.Front_end) in
      if cycles >= t.next_obs_cycle then begin
        let dcycles = cycles - t.obs_prev_cycles in
        let ipc =
          float_of_int (t.retired - t.obs_prev_retired)
          /. float_of_int (max 1 dcycles)
        in
        for i = 0 to Domain.count - 1 do
          let d = Domain.of_index i in
          (* a peek: advancing the ramp here would split the slew
             integration the run itself continues *)
          let f = Dvfs.peek_mhz t.dvfs d ~now in
          t.obs_mhz.(i) <- f;
          t.obs_volt.(i) <- Freq.voltage_f f;
          (* residency weighted by the cycles spent since the previous
             sample; the operating point is snapped to its nearest
             legal step to pick the bin *)
          Mcd_obs.Metrics.observe t.obs_freq_hist.(i)
            ~bin:(Freq.index_of (Freq.clamp (int_of_float (Float.round f))))
            ~weight:(float_of_int dcycles)
        done;
        t.obs_occ.(Domain.index Domain.Front_end) <-
          float_of_int t.fetch_buf_count;
        t.obs_occ.(Domain.index Domain.Integer) <-
          float_of_int (Agequeue.length t.iq_int.entries);
        t.obs_occ.(Domain.index Domain.Floating) <-
          float_of_int (Agequeue.length t.iq_fp.entries);
        t.obs_occ.(Domain.index Domain.Memory) <-
          float_of_int (Agequeue.length t.lsq.entries);
        for i = 0 to Domain.count do
          let pj =
            if i < Domain.count then
              Energy.Accum.domain_pj t.energy (Domain.of_index i)
            else Energy.Accum.external_pj t.energy
          in
          (* the accumulator is reset at the warm-up boundary, so clamp
             the delta against a higher previous reading *)
          t.obs_pj.(i) <- Float.max 0.0 (pj -. t.obs_prev_pj.(i));
          t.obs_prev_pj.(i) <- pj
        done;
        Sink.sample sink ~t_ps:now ~cycles ~ipc ~mhz:t.obs_mhz ~volt:t.obs_volt
          ~occ:t.obs_occ ~pj:t.obs_pj;
        t.obs_prev_cycles <- cycles;
        t.obs_prev_retired <- t.retired;
        t.next_obs_cycle <- cycles + Sink.stride_cycles sink
      end

let tick_front t ~now =
  retire_stage t ~now;
  dispatch_stage t ~now;
  fetch_stage t ~now;
  sample_stage t ~now;
  obs_stage t ~now

(* ------------------------------------------------------------------ *)
(* Issue: execution and memory domains                                 *)
(* ------------------------------------------------------------------ *)

let complete_branch t inf ~now =
  if inf.mispredicted then begin
    let back =
      cross_arrival t ~producer:Domain.Integer ~consumer:Domain.Front_end
        ~when_:inf.completion
    in
    let fp = period t Domain.Front_end ~now in
    t.fetch_resume <-
      max t.fetch_resume (back + (t.cfg.branch_penalty_cycles * fp));
    match t.pending_redirect with
    | Some b when b == inf ->
        t.pending_redirect <- None;
        t.redirect_dep <- inf.di.Inst.seq
    | Some _ | None -> ()
  end

let pool_of t (klass : Inst.iclass) =
  match klass with
  | Inst.Int_alu | Inst.Branch -> t.fu_int_alu
  | Inst.Int_mult -> t.fu_int_mult
  | Inst.Fp_alu -> t.fu_fp_alu
  | Inst.Fp_mult -> t.fu_fp_mult
  | Inst.Load | Inst.Store -> assert false

let issue_exec t inf domain ~now ~completion =
  inf.completion <- completion;
  inf.state <- Completed;
  t.completions <- t.completions + 1;
  (match domain with
  | Domain.Integer ->
      charge t ~now Energy.Issue_int;
      charge t ~now Energy.Regfile_int;
      charge t ~now
        (match inf.di.Inst.klass with
        | Inst.Int_mult -> Energy.Int_mult_op
        | Inst.Int_alu | Inst.Branch | Inst.Fp_alu | Inst.Fp_mult | Inst.Load
        | Inst.Store ->
            Energy.Int_alu_op)
  | Domain.Floating ->
      charge t ~now Energy.Issue_fp;
      charge t ~now Energy.Regfile_fp;
      charge t ~now
        (match inf.di.Inst.klass with
        | Inst.Fp_mult -> Energy.Fp_mult_op
        | Inst.Fp_alu | Inst.Int_alu | Inst.Int_mult | Inst.Branch | Inst.Load
        | Inst.Store ->
            Energy.Fp_alu_op)
  | Domain.Memory | Domain.Front_end -> assert false);
  emit_event t inf Probe.Execute_s ~start:now ~duration:(completion - now)
    ~deps:(deps_of t inf);
  if inf.di.Inst.klass = Inst.Branch then complete_branch t inf ~now

let issue_mem t inf ~now ~p =
  let addr = inf.di.Inst.addr in
  assert (addr >= 0);
  charge t ~now Energy.Lsq_op;
  charge t ~now Energy.L1d_access;
  let completion =
    if Cache.access t.l1d ~addr then now + (t.cfg.l1d.Config.latency_cycles * p)
    else begin
      charge t ~now Energy.L2_access;
      let l2_done =
        now
        + ((t.cfg.l1d.Config.latency_cycles + t.cfg.l2.Config.latency_cycles)
          * p)
      in
      if Cache.access t.l2 ~addr then l2_done
      else begin
        charge t ~now Energy.Main_memory_access;
        l2_done + Time.ns t.cfg.main_memory_ns
      end
    end
  in
  inf.completion <- completion;
  inf.state <- Completed;
  t.completions <- t.completions + 1;
  emit_event t inf Probe.Mem_s ~start:now ~duration:(completion - now)
    ~deps:(deps_of t inf)

(* Oldest-first issue of up to [issue_per_domain] ready entries whose
   unit pool has a free unit, or of up to [mem_ports] ready loads and
   stores. A scan that issues nothing records when it could next differ:
   the earliest [queued_at], blocking arrival or busy pool's
   [Fu.next_free] among the entries it kept. Until then, with no push
   and no completion, the tick is skipped whole, including its [period]
   query: [Clock.advance] repeats that query at the same [now], so the
   slew ramp is still split at the same points. *)
let tick_queue t domain ~now =
  let q = queue t domain in
  if not (quiet t q.issue ~now) then begin
    let p = period t domain ~now in
    let completions = t.completions in
    let until = ref max_int in
    let budget =
      ref
        (match domain with
        | Domain.Memory -> t.cfg.mem_ports
        | Domain.Integer | Domain.Floating | Domain.Front_end ->
            t.cfg.issue_per_domain)
    in
    let i = ref 0 in
    while !budget > 0 && !i < Agequeue.length q.entries do
      let inf = Agequeue.get q.entries !i in
      let ready =
        if inf.queued_at > now then inf.queued_at
        else ready_at t inf ~domain ~now
      in
      if ready > now then begin
        until := earlier !until ready;
        incr i
      end
      else
        match domain with
        | Domain.Memory ->
            Agequeue.remove q.entries !i;
            decr budget;
            issue_mem t inf ~now ~p
        | Domain.Integer | Domain.Floating | Domain.Front_end ->
            let pool = pool_of t inf.di.Inst.klass in
            let completion = Fu.try_issue pool ~now ~period_ps:p in
            if completion < 0 then begin
              until := earlier !until (Fu.next_free pool);
              incr i
            end
            else begin
              Agequeue.remove q.entries !i;
              decr budget;
              issue_exec t inf domain ~now ~completion
            end
    done;
    q.issue.completions_at <- completions;
    q.issue.until <- !until
  end

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

let finished t =
  t.retired >= t.warmup_insts + t.max_insts
  || (t.walker_done && t.rob_count = 0 && t.fetch_buf_count = 0
     && Option.is_none t.pushback)

let metrics t ~now =
  let per_domain =
    Array.init (Domain.count + 1) (fun i ->
        if i < Domain.count then
          Energy.Accum.domain_pj t.energy (Domain.of_index i)
        else Energy.Accum.external_pj t.energy)
  in
  let end_time = if t.retired > 0 then t.last_retire_time else now in
  (* skipped phase instances contribute analytically, from the
     extrapolation accumulators (all zero without a sampler) *)
  {
    Metrics.runtime_ps = max 0 (end_time - t.base_time) + t.extrap_ps;
    energy_pj =
      Energy.Accum.total_pj t.energy
      +. Array.fold_left ( +. ) 0.0 t.extrap_pj;
    per_domain_pj = Array.mapi (fun i v -> v +. t.extrap_pj.(i)) per_domain;
    instructions = max 0 (t.retired - min t.retired t.warmup_insts);
    cycles_front =
      Clock.cycles (clock t Domain.Front_end) - t.base_cycles
      + t.extrap_cycles;
    sync_crossings = t.sync_stats.Sync.crossings + t.extrap_crossings;
    sync_penalties = t.sync_stats.Sync.penalties + t.extrap_penalties;
    reconfigurations =
      Reconfig.writes t.reconfig - t.base_reconfigs + t.extrap_reconfigs;
    instr_points = t.instr_points + t.extrap_instr_points;
    instr_overhead_ps = t.instr_overhead_ps + t.extrap_instr_ps;
  }

let deadlock_horizon = Time.us 100_000 (* 100 ms of simulated time *)

let run ?probe ?controller ?sink ?sampling ?sampler_report ?warmup_insts
    ?(dvfs_faults = []) ~config ~program ~input ~max_insts () =
  let t =
    create ?probe ?controller ?sink ?sampling ?warmup_insts ~config ~program
      ~input ~max_insts ()
  in
  List.iter (Dvfs.inject t.dvfs) dvfs_faults;
  let now = ref Time.zero in
  let last_progress_time = ref Time.zero in
  let last_progress_count = ref 0 in
  while not (finished t) do
    if t.single then begin
      let c = t.clocks.(0) in
      let edge = Clock.next_edge c in
      now := edge;
      tick_front t ~now:edge;
      tick_queue t Domain.Integer ~now:edge;
      tick_queue t Domain.Floating ~now:edge;
      tick_queue t Domain.Memory ~now:edge;
      Clock.advance c;
      for i = 0 to Domain.count - 1 do
        Energy.Accum.charge_clock_tick t.energy t.dvfs ~now:edge
          (Domain.of_index i)
      done
    end
    else begin
      (* earliest pending edge among the four domain clocks *)
      let best = ref 0 in
      for i = 1 to Domain.count - 1 do
        if Clock.next_edge t.clocks.(i) < Clock.next_edge t.clocks.(!best)
        then best := i
      done;
      let c = t.clocks.(!best) in
      let edge = Clock.next_edge c in
      now := edge;
      (match Domain.of_index !best with
      | Domain.Front_end -> tick_front t ~now:edge
      | (Domain.Integer | Domain.Floating | Domain.Memory) as d ->
          tick_queue t d ~now:edge);
      Clock.advance c;
      Energy.Accum.charge_clock_tick t.energy t.dvfs ~now:edge
        (Domain.of_index !best)
    end;
    (* deadlock detection: no retirement progress across a long horizon *)
    if t.retired > !last_progress_count then begin
      last_progress_count := t.retired;
      last_progress_time := !now
    end
    else if !now - !last_progress_time > deadlock_horizon then
      failwith
        (Printf.sprintf
           "Pipeline.run: no retirement progress for %d ps (retired=%d)"
           (!now - !last_progress_time) t.retired)
  done;
  (match (sampler_report, t.sampler) with
  | Some cell, Some s -> cell := Some (Sampler.report s)
  | (Some _ | None), _ -> ());
  metrics t ~now:!now
