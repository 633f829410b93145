(** Cooperative SIGINT/SIGTERM handling for long campaign runs.

    {!install} registers handlers that only set a process-wide flag;
    the supervisor ({!Supervise}) and the worker pool ({!Procpool})
    poll {!requested} at unit boundaries.  An interrupted run thus
    stops dealing new units, kills its workers, flushes its journal,
    and reports partial aggregates instead of dying mid-write. *)

val install : unit -> unit
(** Register the flag-setting handlers for SIGINT and SIGTERM.
    Idempotent; a no-op on platforms without those signals. *)

val requested : unit -> bool
(** Has an interrupt been requested by a signal? *)
