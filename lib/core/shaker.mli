(** The shaker algorithm (Section 3.2 of the paper).

    Given the dependence DAG of a long-running node, the shaker stretches
    individual events that are off the critical path, as if each could
    run at its own lower frequency, distributing the DAG's slack as
    uniformly as possible. It alternates backward and forward passes
    over the DAG with a decaying power threshold: events whose power
    factor exceeds the threshold are scaled (their power factor falls
    with the frequency/voltage operating point) until they consume the
    adjacent slack, reach the threshold, or hit one quarter of full
    frequency; leftover slack is shifted across the event to its other
    edges for earlier (or later) events to consume.

    The output is, per clock domain, a histogram of event work (in
    full-speed cycles) by the frequency step each event was scaled to —
    the input to slowdown thresholding. *)

type result = {
  histograms : Mcd_util.Histogram.t array;
      (** per {!Mcd_domains.Domain.index}; bins are
          {!Mcd_domains.Freq.steps} indices, weights full-speed cycles *)
  passes : int;  (** backward+forward pass pairs executed *)
  stretched_events : int;  (** events scaled below full frequency *)
  total_events : int;
}

val run : ?max_passes:int -> Dag.t -> result
(** At most [max_passes] pass pairs (default 24); the threshold decays
    by 0.85 per pair. The DAG is not modified (the shaker works on
    copies of the schedule). *)

val frequencies_of_durations :
  orig:float array -> stretched:float array -> int array
(** For testing: the frequency step (MHz) implied by each stretched
    duration, snapped down to a legal step. *)
