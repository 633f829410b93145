(** Append-only checkpoint journal for supervised runs.

    One {!Frame} line per {e completed} unit, holding its key and its
    raw outcome with the result still encoded (before the circuit
    breaker's post-pass — so a resumed run re-derives quarantines
    deterministically from the same inputs).  The first line is a
    header frame carrying a configuration fingerprint; {!load} ignores
    a journal whose header is missing, damaged or written under a
    different fingerprint, and skips every line whose frame does not
    verify, so resuming from a truncated or damaged journal (a killed
    run's torn last write, a flipped byte) degrades to recomputing the
    affected units rather than failing or reading wrong bytes.

    Lines are written under the supervisor's journal mutex in
    completion order, which varies with [-j]; only the {e aggregate}
    output of a resumed run is byte-identical, never the journal
    itself. *)

val write_header : out_channel -> config:string -> unit
(** Emit the header line.  Call once when creating a fresh journal;
    appending to an existing journal keeps its header. *)

val append : ?sync:bool -> out_channel -> key:string -> string Supervise.outcome -> unit
(** Emit the entry line of the unit keyed [key] (e.g. ["s2r|dup"]),
    whose [Ok] result is already encoded, and flush, so a killed run
    loses at most the line being written.  With [~sync:true]
    ([--journal-sync]) the line is also [fsync]ed to stable storage,
    extending the guarantee from process kills to power-cut-style
    machine kills; the default's weaker guarantee merely degrades
    resume to recomputing a lost tail.  [Quarantined] outcomes are
    never journaled (a resumed run re-derives them). *)

val load : config:string -> string -> (string, string Supervise.outcome) Hashtbl.t
(** Read a journal back into a key-indexed table (last entry wins).
    Returns an empty table — after a warning on stderr — when the file
    is missing, has no valid header, or was written under a different
    configuration fingerprint. *)
