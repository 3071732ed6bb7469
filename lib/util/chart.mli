(** Horizontal ASCII bar charts for the benchmark harness.

    The paper's evaluation figures are grouped bar charts (one group per
    benchmark, one bar per reconfiguration method) and scatter lines
    (figures 10/11). These helpers render both as text so the harness
    output reads like the figures it reproduces. *)

val bars :
  ?width:int ->
  groups:(string * (string * float) list) list ->
  unit ->
  string
(** [bars ~groups] renders one bar per (group, series) pair, scaled to
    the largest absolute value. Negative values render leftward with a
    distinct fill, and every value is labelled in percent. [width] is
    the bar field width in characters (default 40). *)

val scatter :
  ?width:int ->
  xlabel:string ->
  ylabel:string ->
  series:(string * (float * float) list) list ->
  unit ->
  string
(** Character-grid scatter plot, [width] columns (default 64) by 20
    rows; each series is drawn with its own glyph. Axes are scaled to
    the data's bounding box (origin included when close). *)
