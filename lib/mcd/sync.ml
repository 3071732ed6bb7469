module Time = Mcd_util.Time

let window_fraction = 0.30

type stats = { mutable crossings : int; mutable penalties : int }

let create_stats () = { crossings = 0; penalties = 0 }

let arrival stats ~consumer ~producer_period_ps ~t =
  let edge = Clock.project_edge consumer ~at_or_after:t in
  let consumer_period = Clock.period_ps consumer ~now:t in
  let faster_period = min producer_period_ps consumer_period in
  let window = int_of_float (window_fraction *. float_of_int faster_period) in
  let distance = edge - t in
  stats.crossings <- stats.crossings + 1;
  (* The producing edge is unsafe when it falls within the window of
     either surrounding consumer edge (setup violation against the
     capturing edge, or hold violation against the edge just missed). *)
  if distance < window || consumer_period - distance < window then begin
    stats.penalties <- stats.penalties + 1;
    edge + consumer_period
  end
  else edge
