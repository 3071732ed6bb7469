(** The policy zoo: every DVFS policy the repo knows, on one registry.

    Each entry is a {!Policy.t} — a factory plus identity — so callers
    get a fresh controller per run and a canonical cache-key fragment
    per parameterisation. The registry feeds the tournament experiment
    and the CLI's [--policy] flag. *)

val baseline : Policy.t
(** The MCD baseline: all domains at full speed, no reactions. *)

val fixed : ?label:string -> Mcd_domains.Reconfig.setting -> Policy.t
(** Write the setting once, at the first marker, then never react.
    The one-shot arming flag is allocated inside [create], so every
    run of the same policy value fires. *)

(** {1 Utilization-proportional} *)

type util_prop_params = {
  interval_cycles : int;  (** sampling interval, front-end cycles *)
  ewma : float;  (** smoothing weight on the newest utilisation *)
  cooldown : int;  (** min sample intervals between writes per domain *)
}

val util_prop_default : util_prop_params
val util_prop_params_id : util_prop_params -> string list

val util_prop_controller :
  ?params:util_prop_params -> ?sink:Mcd_obs.Sink.t -> unit ->
  Mcd_cpu.Controller.t
(** Fresh single-use controller; prefer {!util_prop}. *)

val util_prop : ?label:string -> ?params:util_prop_params -> unit -> Policy.t
(** [f = f_min + (f_max - f_min) * U] on the smoothed per-domain queue
    utilisation. Named ["util-prop"]; feedback. *)

(** {1 Attack/decay parameterisations} *)

val online :
  ?label:string -> ?params:Attack_decay.params -> unit -> Policy.t
(** {!Attack_decay.policy}, re-exported as the registry's default
    on-line contender. *)

val eager_params : Attack_decay.params
(** Twitchier attack threshold, double decay step, looser IPC guard. *)

val online_eager : unit -> Policy.t
(** The attack/decay policy at {!eager_params}, labelled
    ["online-eager"]. Same [name] as {!online}, different [params] —
    the two must (and do) key separately in the cache. *)

(** {1 Registry} *)

val all : unit -> Policy.t list
(** Every registered policy, baseline first. Labels are unique. The
    list is built once, at module initialisation: every call (and
    {!contenders}, {!adversaries}, {!by_name}, {!names}) returns the
    same physical values. *)

val contenders : unit -> Policy.t list
(** {!all} minus the baseline: the policies worth racing. *)

val adversaries : unit -> Policy.t list
(** The attack/decay family ({!online}, {!online_eager}): the reactive
    rivals the generative property campaign
    ({!Mcd_experiments.Campaign}) hunts counterexamples against. *)

val by_name : string -> Policy.t option
(** Look a policy up by its registry label (see {!Policy.id}). *)

val names : unit -> string list
(** Registry labels, in {!all} order. *)
