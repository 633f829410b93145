(** Monotonic wall clock.

    All harness timing (campaign phase walls, bench phases, watchdog
    and worker-heartbeat deadlines) goes through this module rather than
    [Unix.gettimeofday], so measurements and deadlines survive NTP
    steps and daylight-saving jumps.  Backed by
    [CLOCK_MONOTONIC]/[mach_absolute_time] via the bechamel sublibrary
    already present in the tool-chain; no allocation on the hot path. *)

val now : unit -> float
(** Seconds on the monotonic clock, as a float.  Only differences are
    meaningful; the epoch is unspecified (typically boot time). *)

val elapsed : float -> float
(** [elapsed t0] is [now () -. t0] — seconds since [t0] was sampled
    with {!now}. *)
