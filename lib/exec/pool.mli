(** Fixed-width work pool over OCaml 5 [Domain]s.

    Jobs are dealt from a shared atomic index (a one-ended deque: every
    worker pops from the front), results land in a slot array keyed by
    the job's position in the input, and the merge replays that stable
    order — so the output of {!map} is [List.map f xs] exactly,
    independent of worker count, scheduling, or which domain ran which
    job.  That order-independence is what lets campaign tables and JSON
    reports be byte-identical at any [-j]. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [-j] default. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs] computed on up to [jobs]
    domains (the calling domain works too); [jobs <= 1], or fewer than
    two jobs, runs sequentially in the caller with no domain spawned.
    [f] must be safe to call from multiple domains concurrently on
    distinct elements.  Every job runs to completion; if any raised, the
    failure at the {e lowest} input index is re-raised in the caller
    (with its backtrace) after all jobs drain — deterministic at any
    [-j]. *)

val mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** {!map} with the element's stable index. *)
