(** On-disk content-addressed cache: the persistent counterpart of
    {!Memo}.

    Entries live one-per-file in a two-level sharded directory, named by
    the md5 of [namespace ^ "\x00" ^ key].  Each file records the full
    namespace, key, payload length and payload checksum in a header
    line, so a read returns the payload only when every one of those
    matches — a torn write, truncation, bit flip, foreign file or hash
    collision is a miss, never a crash and never a wrong answer.

    The namespace names the cached layer {e and its schema version}
    (e.g. ["solver-verdict:1"]); bump the version whenever the
    marshalled type changes.  The key must fingerprint everything the
    value depends on — for layers whose values depend on compiled code
    that includes {!Jit.Fault.cache_tag}, so mutant runs never poison
    pristine entries. *)

type t

type stats = {
  hits : int;  (** reads that returned a valid entry *)
  misses : int;  (** reads that found nothing usable *)
  loads : int;  (** reads that found a file and parsed it *)
  writes : int;  (** entries persisted *)
}

val open_store : dir:string -> t
(** Open (lazily create) a store rooted at [dir].  Cheap: no I/O until
    the first read or write. *)

val dir : t -> string
val stats : t -> stats

val find : t -> ns:string -> key:string -> string option
(** Raw payload lookup.  [None] on any anomaly (missing, torn,
    corrupted, or recorded for a different namespace/key). *)

val add : t -> ns:string -> key:string -> string -> unit
(** Persist a payload via temp-file + rename.  I/O failures (full or
    read-only disk) drop the write silently — the store is a cache. *)

val entry_path : t -> ns:string -> key:string -> string
(** Where [find]/[add] address this entry — exposed for tests that
    corrupt or cross-wire entries on purpose. *)

(** {2 Process-global activation}

    The memo layers consult one process-wide store so `--store DIR` /
    [VMTEST_STORE] can switch persistence on without threading a handle
    through every layer.  When no store is active, [lookup]/[record]
    are no-ops and [counters] is all zeros. *)

val activate : string -> unit
val deactivate : unit -> unit
val active : unit -> t option
val enabled : unit -> bool

val activate_opt : string option -> unit
(** [activate_opt (Some dir)] activates [dir]; [activate_opt None]
    falls back to the [VMTEST_STORE] environment variable, else leaves
    the store inactive. *)

val counters : unit -> stats
val reset_counters : unit -> unit

val lookup : ns:string -> key:string -> 'a option
(** Unmarshal an entry from the active store.  Only sound for keys
    whose namespace always marshals the same type — the checksum
    guarantees the bytes, the namespace version must guarantee the
    schema. *)

val record : ns:string -> key:string -> 'a -> unit
