module Controller = Mcd_cpu.Controller
module Domain = Mcd_domains.Domain
module Freq = Mcd_domains.Freq
module Reconfig = Mcd_domains.Reconfig

type counters = {
  mutable clamped : int;
  mutable suppressed : int;
  mutable reissues : int;
  mutable controller_faults : int;
  mutable fallbacks : int;
}

let counters () =
  { clamped = 0; suppressed = 0; reissues = 0; controller_faults = 0; fallbacks = 0 }

let fallen_back c = c.fallbacks > 0

let interventions c =
  c.clamped + c.suppressed + c.reissues + c.controller_faults + c.fallbacks

let pp_counters fmt c =
  Format.fprintf fmt
    "{clamped=%d suppressed=%d reissues=%d controller_faults=%d fallbacks=%d}"
    c.clamped c.suppressed c.reissues c.controller_faults c.fallbacks

let default_watchdog_interval_cycles = 8192
let default_max_reissues = 3

(* A slew making progress closes its target gap by >= ~100 MHz per
   watchdog sample (8192 cycles at 1 GHz is 8.2 us, or 112 MHz at the
   73.3 ns/MHz ramp); a gap that fails to shrink by even 1 MHz across
   several samples is not a transition, it is a fault. *)
let stall_epsilon_mhz = 1.0
let stall_streak_limit = 4

let guard ?(log = fun (_ : Error.t) -> ()) ?sink ~counters:c inner =
  let degraded = ref false in
  let quiet = ref false in
  let commanded : int array option ref = ref None in
  let mismatch_streak = ref 0 in
  let stall_streak = ref 0 in
  let prev_gap = Array.make Domain.count 0.0 in
  let prev_target = Array.make Domain.count (-1) in
  let where = inner.Controller.name in
  let emit ~now detail =
    match sink with
    | None -> ()
    | Some snk -> Mcd_obs.Sink.degraded snk ~t_ps:now ~source:where ~detail
  in
  let sanitize ~now set =
    match set with
    | None -> None
    | Some s -> (
        match Validate.setting ~where s with
        | Result.Error e ->
            log e;
            c.suppressed <- c.suppressed + 1;
            emit ~now ("suppressed: " ^ Error.to_string e);
            None
        | Result.Ok (repaired, []) -> Some repaired
        | Result.Ok (repaired, warnings) ->
            List.iter log warnings;
            c.clamped <- c.clamped + 1;
            emit ~now "clamped off-grid setting";
            Some repaired)
  in
  let command s =
    commanded := Some (Array.copy s);
    Some s
  in
  let fall_back ~now ~detail =
    c.fallbacks <- c.fallbacks + 1;
    log (Error.Runtime_fault { where; detail });
    emit ~now ("fallback: " ^ detail);
    degraded := true;
    mismatch_streak := 0;
    stall_streak := 0;
    command (Reconfig.full_speed ())
  in
  let on_marker m ~now =
    if !degraded then Controller.no_reaction
    else
      match inner.Controller.on_marker m ~now with
      | exception e ->
          c.controller_faults <- c.controller_faults + 1;
          let set =
            fall_back ~now ~detail:("policy raised " ^ Printexc.to_string e)
          in
          { Controller.stall_cycles = 0; table_reads = 0; set }
      | r -> (
          match sanitize ~now r.Controller.set with
          | Some s -> { r with Controller.set = command s }
          | None -> { r with Controller.set = None })
  in
  (* The watchdog: compare what we commanded against what the hardware
     admits it was asked for (lost/ignored writes), and watch for target
     gaps that stop closing (a slew that never completes). *)
  let watchdog (s : Controller.sample) ~now =
    if !quiet then None
    else begin
      let action = ref None in
      (match !commanded with
      | None -> ()
      | Some cmd ->
          let mismatch = ref false in
          Array.iteri
            (fun i cmd_i ->
              if s.Controller.target_mhz.(i) <> cmd_i then mismatch := true)
            cmd;
          if !mismatch then begin
            incr mismatch_streak;
            if !mismatch_streak <= default_max_reissues then begin
              c.reissues <- c.reissues + 1;
              emit ~now "watchdog: reissuing lost reconfiguration write";
              action := Some (Array.copy cmd)
            end
            else if not !degraded then
              action :=
                fall_back ~now
                  ~detail:
                    "reconfiguration-register writes are being ignored \
                     (lost write or stuck domain)"
            else begin
              (* hardware is deaf even to the fallback: stop trying *)
              quiet := true;
              log
                (Error.Runtime_fault
                   {
                     where;
                     detail =
                       "domain ignores even the full-speed fallback; giving up";
                   });
              emit ~now "watchdog: fallback ignored too; giving up"
            end
          end
          else mismatch_streak := 0);
      (if !action = None then begin
         let stalled = ref false in
         for i = 0 to Domain.count - 1 do
           let gap =
             Float.abs
               (s.Controller.current_mhz.(i)
               -. float_of_int s.Controller.target_mhz.(i))
           in
           let target_stable = prev_target.(i) = s.Controller.target_mhz.(i) in
           if
             target_stable
             && gap > float_of_int Freq.step_mhz /. 2.0
             && gap >= prev_gap.(i) -. stall_epsilon_mhz
           then stalled := true;
           prev_gap.(i) <- gap;
           prev_target.(i) <- s.Controller.target_mhz.(i)
         done;
         if !stalled then incr stall_streak else stall_streak := 0;
         if !stall_streak >= stall_streak_limit && not !degraded then
           action := fall_back ~now ~detail:"frequency slew is not completing"
       end);
      !action
    end
  in
  let on_sample s ~now =
    match watchdog s ~now with
    | Some _ as reissue -> reissue
    | None ->
        if !degraded || inner.Controller.sample_interval_cycles = 0 then None
        else (
          match inner.Controller.on_sample s ~now with
          | exception e ->
              c.controller_faults <- c.controller_faults + 1;
              fall_back ~now ~detail:("policy raised " ^ Printexc.to_string e)
          | set -> (
              match sanitize ~now set with
              | Some s -> command s
              | None -> None))
  in
  {
    Controller.name = "guard:" ^ inner.Controller.name;
    on_marker;
    on_sample;
    sample_interval_cycles =
      (if inner.Controller.sample_interval_cycles > 0 then
         inner.Controller.sample_interval_cycles
       else default_watchdog_interval_cycles);
  }
